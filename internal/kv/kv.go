// Package kv is a sharded, string-keyed transactional key-value store
// built on the internal/stm runtime. It is the repo's first serving-scale
// workload: transactional cross-key updates mixed with plain fast-path
// reads, which is exactly the mixed-mode territory the paper bounds.
//
// Values are arbitrary byte strings, carried end-to-end on the typed core
// (stm.TVar[[]byte]); numeric counters get a compatibility lane on the
// int64 specialization (stm.Var) via CounterAdd / FastCounterGet, so the
// hottest numeric path pays no boxing. A key holds exactly one kind —
// bytes or counter — fixed at first use; accessing it through the other
// kind's mutators fails with ErrWrongType (reads format counters as
// decimal, so GET works uniformly).
//
// Keys hash (FNV-1a) to one of N power-of-two shards. Each shard owns its
// own stm.STM instance and an open-addressed key→entry table of atomic
// slots (table.go), so the plain-access path (FastGet) is lock-free — one
// atomic pointer load, a short probe run, one atomic value load — and
// linking or unlinking a key is one slot store. Multi-key operations run
// as a single transaction two-phased across the shards touched via
// stm.AtomicallyMulti with the shards in ascending index order, which
// makes cross-shard commits deadlock-free and invisible in partial states
// to consistent readers. Reads run no transaction. Get, CounterGet and
// MGet first load each key's lock word, value and word again (stm.Snap)
// with no bound; when that gives up, because a commit holds a word or
// the entry is retired, they read again under stm.Snap.Run, which bounds
// the read by each shard's clock and waits out a held word. View runs
// its body under stm.Snap.Run from the start, so the body itself never
// sees half a commit. No read takes a lock, on any engine.
//
// A key's whole lifecycle lives in one transactional word. An entry is
// linked into its shard's table holding a distinguished absent value,
// and Set, CounterAdd, Delete and re-creation are ordinary reads and
// writes of that word inside the caller's transaction — so a key
// becomes visible exactly when the transaction that creates it commits,
// and vanishes exactly when the one that deletes it does. The table
// itself is not transactional, so a transactional lookup that finds no
// entry reads the shard's keyspace version first and looks again (a miss
// is a read: the link that follows invalidates it). Entries leave the
// table through one collector, which moves a still-absent entry to a
// permanent retired state before unlinking it (see Store.collect).
//
// Mixed-mode access follows the paper's §5 implementation model:
//
//   - FastGet is a plain read. Against the lazy engine it can miss a
//     logically-committed-but-unwritten value (the delayed-writeback
//     anomaly of §3.5); the store never promises otherwise.
//   - Privatize issues quiescence fences on the owning shards and hands
//     back raw TVar handles, after which plain access cannot race with
//     in-flight transactional writeback.
//   - Publish performs plain writes and then a sentinel transaction per
//     owning shard, so transactional readers that observe the sentinel
//     are ordered after the plain writes (publication by direct
//     dependency, safe by construction).
package kv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// ErrWrongType reports an operation against a key holding the other kind
// of value (bytes vs. counter).
var ErrWrongType = errors.New("kv: operation against a key holding the wrong kind of value")

// ErrCounterRange reports a counter write whose result is one of the two
// lowest int64 values, which the counter lane reserves for its absent
// and retired states. The write fails; the key is left as it was.
var ErrCounterRange = errors.New("kv: counter value out of range")

// Option configures a Store (see New).
type Option func(*config)

type config struct {
	shards      int
	engine      stm.Engine
	maxRetries  int
	metricsOff  bool
	sampleEvery int

	// Durability (see durable.go / WithDurability).
	durDir       string
	durLevel     wal.Level
	segmentBytes int64
	flushEvery   time.Duration
	degradedMode DegradedMode
	walFS        wal.FS
}

// WithShards sets the shard count, rounded up to a power of two
// (default 16).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithEngine selects the STM engine backing every shard (default Lazy).
func WithEngine(e stm.Engine) Option { return func(c *config) { c.engine = e } }

// WithMaxRetries bounds commit attempts per operation (default: the stm
// package default).
func WithMaxRetries(n int) Option { return func(c *config) { c.maxRetries = n } }

// WithMetrics enables or disables metrics — the store's per-op latency
// histograms and every shard's stm.Metrics together (default enabled).
func WithMetrics(on bool) Option { return func(c *config) { c.metricsOff = !on } }

// WithMetricsSampling sets the latency-sampling period for both the
// store's per-op histograms and the shards' STM distributions: one call
// in every n carries timestamps (default 256, rounded up to a power of
// two). n <= 1 samples everything — the deterministic setting tests use.
func WithMetricsSampling(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.sampleEvery = n
	}
}

// entry is one key's storage: one transactional word, b (bytes kind) or
// c (counter kind), fixed when the entry is made. The word holds the
// key's value or one of two non-values. Absent is what a fresh entry and
// a deleted key hold: readers report no key, and a writer of the entry's
// kind simply writes a value over it. Retired is terminal, written only
// by the collector on its way to unlinking the entry: a transaction that
// reads it has a stale entry and looks the key up again. key and hash
// (fnv1a of key) are what the table finds the entry by.
//
// The bytes word is part of the entry, not behind a pointer: an entry is
// 64 bytes, so what a lookup compares (hash, key header) and what it then
// reads (lock word, box pointer) arrive on one cache line, and a bytes
// key is one object to allocate and to mark. Counters are few and keep
// the pointer; a counter entry's b is the zero TVar and is never used.
// Whoever holds &e.b (Privatize's callers, a transaction's logs) holds
// the entry, whatever the table does meanwhile.
type entry struct {
	key  string
	hash uint64
	c    *stm.Var
	b    stm.TVar[[]byte]
}

func (e *entry) isCounter() bool { return e.c != nil }

// varID is the id of e's word, which the shard's contention table
// attributes conflicts by.
func (e *entry) varID() uint64 {
	if e.isCounter() {
		return e.c.ID()
	}
	return e.b.ID()
}

// state is what an entry's word holds. The two non-values are encoded
// alike on both lanes, by number: non-value s is the box nonBox[s] on
// the bytes lane — told from every stored value by the box's identity,
// without dereferencing it (so a Set never touches the box the last
// writer left on another processor) — and nonCount+s on the counter lane
// (see ErrCounterRange).
type state uint8

const (
	absent state = iota
	retired
	live
)

var nonBox = [2]*[]byte{new([]byte), new([]byte)}

// emptyBox is the nil value every present bytes key starts on (see
// newEntry). One box serves them all because no box is ever written in
// place: every write stores a fresh box, and a state is told only by
// identity against nonBox, so a shared box is as good as a private one.
var emptyBox = new([]byte)

const nonCount int64 = math.MinInt64

// countErr rejects a counter result the lane cannot store.
func countErr(key string, n int64) error {
	if countState(n) != live {
		return fmt.Errorf("kv: key %q: %w", key, ErrCounterRange)
	}
	return nil
}

func bytesState(box *[]byte) state {
	switch box {
	case nonBox[absent]:
		return absent
	case nonBox[retired]:
		return retired
	}
	return live
}

func countState(n int64) state {
	if n > nonCount+int64(retired) {
		return live
	}
	return state(n - nonCount)
}

// read reads e's word in a transaction, and returns e, the word's
// content on its lane, and what that content is. (Scalars, not a
// struct: these sit under every operation, and the copies a struct
// costs showed.)
func (e *entry) read(tx *stm.Tx) (*entry, []byte, int64, state) {
	if e.isCounter() {
		n := tx.Read(e.c)
		return e, nil, n, countState(n)
	}
	box := stm.ReadBox(tx, &e.b)
	return e, *box, 0, bytesState(box)
}

// unbounded is the bound of a snapshot read that Valid alone makes
// sound: it refuses no version (see stm.Snap).
const unbounded = math.MaxUint64

// snap is read with no transaction: it reads e's word into sn under
// bound, and reports false when the snapshot gave up (see stm.Snap).
func (e *entry) snap(sn *stm.Snap, bound uint64) ([]byte, int64, state, bool) {
	if e.isCounter() {
		n, ok := sn.Read(e.c, bound)
		return nil, n, countState(n), ok
	}
	box, ok := stm.SnapBox(sn, &e.b, bound)
	if !ok {
		return nil, 0, absent, false
	}
	return *box, 0, bytesState(box), true
}

// value surfaces what a read returned: counters as decimal, ok false
// for a key holding no value (or no entry).
func value(e *entry, b []byte, n int64, st state) ([]byte, bool) {
	switch {
	case st != live:
		return nil, false
	case e.isCounter():
		return formatCounter(n), true
	}
	return b, true
}

// write stores non-value st in e's word.
func (e *entry) write(tx *stm.Tx, st state) {
	if e.isCounter() {
		tx.Write(e.c, nonCount+int64(st))
	} else {
		stm.WriteBox(tx, &e.b, nonBox[st])
	}
}

// Store is a sharded transactional key-value store. All methods are safe
// for concurrent use. Byte slices returned by reads are the stored boxes:
// treat them as read-only (writes always install defensive copies).
type Store struct {
	shards []*shard
	mask   uint64
	engine stm.Engine

	// fastGets is indexed by shard and cache-line padded: the lock-free
	// read path must not false-share one hot counter word across cores.
	fastGets []paddedCount

	// singleOps and multiOps recycle per-call scratch (operands, result
	// slots and pre-bound transaction bodies) for the hot operations, so
	// steady-state Get/Set/CounterAdd/Update/View allocate no closures.
	singleOps sync.Pool
	multiOps  sync.Pool

	// opHists holds the sampled per-operation latency histograms, nil
	// when metrics are disabled; sampleMask is the sampling period minus
	// one (period a power of two), shared by every pooled op's tick.
	opHists    *[numOps]obs.Histogram
	sampleMask uint64

	// Durability and changefeed state (durable.go, feed.go). feed is the
	// one commit stream every shard's tap feeds; tapOn is the write
	// paths' single gate: when false (no durability, no subscriber ever
	// registered) the only cost is its atomic load.
	feed        feed
	dur         *durState
	tapOn       atomic.Bool
	tapOnce     sync.Once
	subs        atomic.Pointer[[]*Subscription]
	subMu       sync.Mutex
	feedDropped atomic.Uint64
}

type paddedCount struct {
	n atomic.Uint64
	_ [7]uint64
}

type shard struct {
	stm   *stm.STM
	index int
	pub   *stm.Var // publication sentinel (see Publish)

	// kvers is the keyspace version: a transactional variable Touched
	// (version-stamped and waiter-notified, value untouched) after every
	// link into or unlink from the key table. The table is not
	// transactional — a reader may be walking an array a link is storing
	// into, or one a rebuild has already replaced — so this is what makes
	// a miss a read: a transaction that routes a key to no entry (or to a
	// retired one) reads kvers and then looks again (see find), so the
	// link that follows conflicts it, and a WaitGet/Watch parked there is
	// woken.
	kvers *stm.Var

	mu   sync.Mutex            // guards link, unlink and the table's rebuild
	tbl  atomic.Pointer[table] // key table: read with no lock (table.go)
	keys atomic.Int64          // entries linked in tbl
}

// New creates a Store. It panics if the options cannot be honored,
// which only durability options can cause — stores opened with
// WithDurability should use Open to handle recovery errors.
func New(opts ...Option) *Store {
	s, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Open creates a Store and, when WithDurability is set, recovers the
// durability directory into it and starts logging: the newest usable
// snapshot plus the log tail replay, then the log attaches and every
// subsequent committed write is appended in commit order at the
// configured level.
func Open(opts ...Option) (*Store, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	s := newStore(&c)
	if c.durDir == "" {
		return s, nil
	}
	s.dur = &durState{
		dir:   c.durDir,
		level: c.durLevel,
		opts: wal.Options{
			Level:         c.durLevel,
			SegmentBytes:  c.segmentBytes,
			FlushInterval: c.flushEvery,
			FS:            c.walFS,
			OnFail:        s.noteWALFault,
		},
		mode: c.degradedMode,
		fs:   c.walFS,
	}
	if _, err := s.Recover(); err != nil {
		return nil, err
	}
	if err := s.attachLogs(); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(c *config) *Store {
	n := c.shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard routing is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	n = p
	s := &Store{
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
		engine:   c.engine,
		fastGets: make([]paddedCount, n),
	}
	se := uint64(c.sampleEvery)
	if se == 0 {
		se = 256
	}
	if se&(se-1) != 0 {
		se = 1 << bits.Len64(se) // round up to a power of two
	}
	s.sampleMask = se - 1
	stmOpts := []stm.Option{
		stm.WithEngine(c.engine),
		stm.WithMetrics(!c.metricsOff),
		stm.WithMetricsSampling(int(se)),
	}
	if c.maxRetries > 0 {
		stmOpts = append(stmOpts, stm.WithMaxRetries(c.maxRetries))
	}
	if !c.metricsOff {
		s.opHists = new([numOps]obs.Histogram)
	}
	for i := range s.shards {
		inst := stm.New(stmOpts...)
		sh := &shard{
			stm:   inst,
			index: i,
			pub:   inst.NewVar("pub", 0),
			kvers: inst.NewVar("keys", 0),
		}
		sh.tbl.Store(newTable(0))
		s.shards[i] = sh
	}
	s.singleOps.New = func() any {
		op := &singleOp{s: s}
		op.rereadFn = op.reread
		op.setFn = op.runSet
		op.addFn = op.runAdd
		return op
	}
	s.multiOps.New = func() any {
		op := &multiOp{s: s}
		op.fp.pos = make([]int32, len(s.shards))
		op.fp.set = make([]uint64, (len(s.shards)+63)/64)
		op.runUpdate = op.update
		op.runView = op.viewAttempt
		return op
	}
	return s
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Engine returns the engine backing the store.
func (s *Store) Engine() stm.Engine { return s.engine }

// ShardOf returns the index of the shard owning key.
func (s *Store) ShardOf(key string) int { return int(fnv1a(key) & s.mask) }

// ShardSTM exposes shard i's STM instance for stats, anomaly hooks and
// tests.
func (s *Store) ShardSTM(i int) *stm.STM { return s.shards[i].stm }

// route returns the shard owning key and key's hash, which every table
// lookup in that shard takes.
func (s *Store) route(key string) (*shard, uint64) {
	h := fnv1a(key)
	return s.shards[h&s.mask], h
}

func wrongType(key string) error {
	return fmt.Errorf("kv: key %q: %w", key, ErrWrongType)
}

// newEntry makes an unlinked entry, absent or — for the callers whose
// contract is a key present on return — already holding the kind's zero
// value (nil bytes on the shared emptyBox, counter 0): nothing can read
// an entry before it is linked, so initialising it there is the whole
// write. A present bytes key is one allocation, its entry.
func (sh *shard) newEntry(key string, h uint64, counter, present bool) *entry {
	if counter {
		n := nonCount + int64(absent)
		if present {
			n = 0
		}
		return &entry{key: key, hash: h, c: sh.stm.NewVar(key, n)}
	}
	e := &entry{key: key, hash: h}
	box := nonBox[absent]
	if present {
		box = emptyBox
	}
	e.b.Init(sh.stm, box)
	return e
}

// hashedKey is a key routed to its shard, with the hash that routed it.
type hashedKey struct {
	key  string
	hash uint64
}

// linkAll is shard.link across shards: the keys are routed by a counting
// sort into one slice, each keeping its hash, and the shards link their
// runs of it through eachShard. What the shards return comes back in no
// particular order.
func (s *Store) linkAll(keys []string, counter bool) (had []string, other []*entry) {
	if len(keys) == 1 {
		sh, h := s.route(keys[0])
		return sh.link([]hashedKey{{keys[0], h}}, counter)
	}
	at := make([]int, len(s.shards)+1) // shard i's run is routed[at[i]:at[i+1]]
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = fnv1a(k)
		at[hs[i]&s.mask+1]++
	}
	for i := range s.shards {
		at[i+1] += at[i]
	}
	routed := make([]hashedKey, len(keys))
	next := append([]int(nil), at[:len(s.shards)]...)
	for i, k := range keys {
		j := hs[i] & s.mask
		routed[next[j]] = hashedKey{k, hs[i]}
		next[j]++
	}
	hads := make([][]string, len(s.shards))
	others := make([][]*entry, len(s.shards))
	s.eachShard(len(keys), func(i int) {
		hads[i], others[i] = s.shards[i].link(routed[at[i]:at[i+1]], counter)
	})
	for i := range s.shards {
		had = append(had, hads[i]...)
		other = append(other, others[i]...)
	}
	return had, other
}

// parallelMin is the batch below which eachShard runs on the caller
// alone and starts no goroutine. Such batches, like kv-write-contended's
// 256-key ensures, are too short to share: with the threshold at 0 that
// workload's set-up measured no different (EXPERIMENTS.md, "Bulk paths:
// one loop, measured again").
const parallelMin = 4096

// eachShard calls fn(i) once for every shard index i, and returns when
// every call has. The calls run on min(GOMAXPROCS, shards) workers, the
// caller one of them — the caller alone for a batch of n < parallelMin
// keys — which take the next index from a shared counter, so one heavy
// shard holds up only its own worker. It is for the bulk paths that
// write keys plainly where no transaction can reach them — recovery's
// replay and EnsureKeys's link — each call touching only shard i: a
// shard's own STM instance, table, mu and kvers, so two shards' calls
// share nothing to race on.
func (s *Store) eachShard(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), len(s.shards))
	if n < parallelMin {
		workers = 1
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(s.shards) {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// collect is the one way out of the key table, run after a committed
// delete, by a writer that finds the key's name held by an absent entry
// of the other kind, and by a creating operation that failed, on the
// entries it linked. An entry that an ordinary write can re-create
// cannot simply be dropped from the table — a writer holding it would
// commit into an orphan — so collect first moves each entry that is
// still absent to the retired state, in a transaction that serializes
// with every such writer (the writer commits first and the entry stays,
// or it reads retired and looks again), and only then unlinks it. It
// returns the entries that held no value, whose names are now free;
// live ones are left alone.
func (s *Store) collect(items []*entry) (gone []*entry) {
	byShard := make(map[*shard][]*entry)
	for _, e := range items {
		sh := s.shards[e.hash&s.mask]
		byShard[sh] = append(byShard[sh], e)
	}
	for sh, es := range byShard {
		var dead []*entry
		err := sh.stm.Atomically(func(tx *stm.Tx) error {
			dead = dead[:0]
			for _, e := range es {
				switch _, _, _, st := e.read(tx); st {
				case absent:
					e.write(tx, retired)
					dead = append(dead, e)
				case retired:
					dead = append(dead, e)
				}
			}
			return nil
		})
		if err != nil {
			continue // retry budget spent: the entries stay linked, absent and invisible
		}
		sh.unlink(dead)
		gone = append(gone, dead...)
	}
	return gone
}

// EnsureKeys makes all the keys present as bytes keys: missing ones are
// created with a nil value, existing ones keep their kind and value. A
// batch of 4,096 keys or more links its shards side by side, one worker
// a processor. Safe beside every other operation.
func (s *Store) EnsureKeys(keys ...string) { s.ensure(keys, false) }

// EnsureCounters makes all the keys present as counters: missing ones
// are created at 0, existing ones keep their kind and value. It links as
// EnsureKeys does.
func (s *Store) EnsureCounters(keys ...string) { s.ensure(keys, true) }

// ensure links the keys that have no entry already present, with no
// transaction: each shard links its share in one hold of its mu, with
// one table rebuild for the batch, and the shards link through
// eachShard. Such a key is written plainly where no transaction can
// reach it: nothing finds its entry before the link. A key held by an
// entry of the other kind keeps it if it holds a value; if it holds none
// (deleted and not yet collected, or left by a failed creation), the
// collector frees its name and a second link makes it present. The rest
// of the keys that had an entry go through one ordinary transaction,
// which brings to life those holding no value.
func (s *Store) ensure(keys []string, counter bool) {
	had, other := s.linkAll(keys, counter)
	var freed []string
	for _, e := range s.collect(other) {
		freed = append(freed, e.key)
	}
	if len(freed) > 0 {
		// A name that another writer took again after the collector
		// freed it goes to the transaction, which handles it as any
		// Update does (see clashed).
		again, taken := s.linkAll(freed, counter)
		had = append(had, again...)
		for _, e := range taken {
			had = append(had, e.key)
		}
	}
	if len(had) == 0 {
		return
	}
	// No error to return: a key already holding the other kind keeps it,
	// as EnsureKeys documents.
	_ = s.Update(had, func(t *Txn) error {
		for _, k := range had {
			if _, ok := t.Get(k); !ok {
				t.ensure(k, counter)
			}
		}
		return nil
	})
}

// Len returns the number of keys linked in the table. Between a
// committed delete, or a creation that failed, and its collection, that
// counts an entry no reader can see.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += int(sh.keys.Load())
	}
	return n
}

// copyVal defensively copies an incoming value so later caller mutation
// of its buffer cannot corrupt the store. Stored boxes are immutable.
func copyVal(val []byte) []byte {
	if val == nil {
		return nil
	}
	return append([]byte(nil), val...)
}

// formatCounter renders a counter the way reads surface it.
func formatCounter(v int64) []byte { return strconv.AppendInt(nil, v, 10) }

// FastGet is the lock-free mixed-mode read: a plain (non-transactional)
// load of the key's variable. It reports false when the key has never
// been written; counter keys are formatted as decimal. Per the §5
// implementation model it may miss a value whose transaction has
// validated but not yet written back (lazy engine); use Get for a
// linearizable read, or Privatize to fence.
func (s *Store) FastGet(key string) ([]byte, bool) {
	sh, h := s.route(key)
	s.fastGets[sh.index].n.Add(1)
	e := sh.lookup(key, h)
	if e == nil {
		return nil, false
	}
	if e.isCounter() {
		n := e.c.Load()
		return value(e, nil, n, countState(n))
	}
	box := e.b.LoadBox()
	return value(e, *box, 0, bytesState(box))
}

// FastCounterGet is FastGet on the int64 specialization: a single plain
// atomic load with no formatting and no allocation. ok is false when the
// key is absent or holds bytes.
func (s *Store) FastCounterGet(key string) (int64, bool) {
	sh, h := s.route(key)
	s.fastGets[sh.index].n.Add(1)
	e := sh.lookup(key, h)
	if e == nil || !e.isCounter() {
		return 0, false
	}
	n := e.c.Load()
	if countState(n) != live {
		return 0, false
	}
	return n, true
}

// find reads key in tx (the result is read's, with a nil entry when
// none is linked). The key is missing when no entry is linked or
// the linked one is retired, and a miss is a read: kvers is read first
// and the table looked up again after it. A link or unlink whose Touch
// landed before the kvers read stored its slot first (into the array the
// second lookup loads, or one since rebuilt from it), so the second
// lookup sees it and the loop follows the table; one that lands after is
// a conflict on kvers — at validation, or as the wake-up of a
// transaction that went on to Block. That order is what keeps a View
// from reporting key a missing and its sibling b present from the one
// transaction that created both, and a parked WaitGet from sleeping past
// the creation it waits for (the kvers read alone absorbs a Touch that
// landed before the transaction began).
func (sh *shard) find(tx *stm.Tx, key string, h uint64) (e *entry, b []byte, n int64, st state) {
	e = sh.lookup(key, h)
	for {
		if e != nil {
			if _, b, n, st = e.read(tx); st != retired {
				return e, b, n, st
			}
		}
		tx.Read(sh.kvers)
		next := sh.lookup(key, h)
		if next == e {
			return e, nil, 0, absent
		}
		e = next
	}
}

// findS is find in a snapshot whose reads of this shard are under bound:
// ok false means the snapshot gave up. A bounded snapshot stands without
// loading its words again (see stm.Snap), so what it reports must hold
// at its bound, and the table is not transactional. A linked entry no
// commit has written is read at version 0, which makes the snapshot
// load its words again. A miss after an unlink reads kvers, which the
// unlink touched before it stored the tombstone (see shard.unlink): a
// key deleted after the bound is refused as too new, never missed.
func (sh *shard) findS(sn *stm.Snap, key string, h, bound uint64) (e *entry, b []byte, n int64, st state, ok bool) {
	e = sh.lookup(key, h)
	for {
		if e != nil {
			if b, n, st, ok = e.snap(sn, bound); !ok || st != retired {
				return e, b, n, st, ok
			}
		}
		if _, ok = sn.Read(sh.kvers, bound); !ok {
			return e, nil, 0, absent, false
		}
		next := sh.lookup(key, h)
		if next == e {
			return e, nil, 0, absent, true
		}
		e = next
	}
}

// own returns key's entry of the given kind and what tx reads in it
// (absent or live — for a counter, with its value), for a write to
// follow: a key with no entry gets a fresh absent one linked — noted in
// *made, for the caller to hand to the collector should it fail — and a
// retired entry is unlinked and looked up again, so the entry is never
// a stale one. ok is false when the name is held by an entry of the
// other kind (returned): the caller fails with ErrWrongType, and its
// wrapper asks the collector whether that entry was only an absent
// leftover (see clashed).
func (sh *shard) own(tx *stm.Tx, key string, h uint64, counter bool, made *[]*entry) (e *entry, n int64, st state, ok bool) {
	for {
		if e = sh.lookup(key, h); e == nil {
			var fresh bool
			if e, fresh = sh.linkOne(key, h, counter); fresh {
				*made = append(*made, e)
			}
		}
		if e.isCounter() != counter {
			return e, 0, absent, false
		}
		// Not e.read: a write needs no bytes, so the box is told by
		// its pointer and left where its last writer's cache has it.
		if counter {
			n = tx.Read(e.c)
			st = countState(n)
		} else {
			st = bytesState(stm.ReadBox(tx, &e.b))
		}
		if st != retired {
			return e, n, st, true
		}
		sh.unlink([]*entry{e})
	}
}

// clashed reports whether an operation that failed with ErrWrongType on
// e should run again: the collector found e holding no value (a deleted
// key not yet collected, or a failed creation's leftover) and unlinked
// it, freeing the name for the other kind. An entry with a value is a
// real kind mismatch — including one the failed transaction itself had
// deleted: within one transaction a key's kind stays fixed.
func (s *Store) clashed(e *entry) bool {
	return e != nil && len(s.collect([]*entry{e})) > 0
}

// singleOp is pooled per-call scratch for the single-key hot paths: the
// operands and result slots travel through the op instead of a closure
// environment, and the transaction bodies are method values bound once
// at pool fill, so a steady-state Get/Set/CounterAdd allocates nothing
// for its own plumbing.
type singleOp struct {
	s     *Store
	sh    *shard
	key   string
	h     uint64 // fnv1a(key)
	val   []byte // Set input (already copied) / Get output
	delta int64  // CounterAdd input
	n     int64  // CounterAdd / CounterGet output
	e     *entry // the entry reread found, with st what its word held
	st    state
	clash *entry   // other-kind entry the last write attempt ran into (see clashed)
	made  []*entry // entries the write attempts linked, collected should the write fail

	rereadFn func([]uint64) error
	setFn    func(*stm.Tx) error
	addFn    func(*stm.Tx) error

	// snap is the scratch of the transaction-free reads (see snapRead
	// and reread).
	snap stm.Snap

	// pend is the op's durability effect list (durable.go), attached to
	// the write bodies' transactions when the commit tap is on. Pooled
	// with the op, so steady-state emission reuses its capacity.
	pend pendingOps

	// tick is the latency-sampling tick (see nextSample in metrics.go);
	// deliberately NOT cleared by release, so it survives pool reuse.
	tick uint64
}

// release drops the operands so the pooled op does not pin values, and
// returns it to the pool.
func (op *singleOp) release() {
	s := op.s
	op.sh, op.key, op.val = nil, "", nil
	op.delta, op.n, op.clash, op.e = 0, 0, nil, nil
	clear(op.made)
	op.made = op.made[:0]
	op.pend.reset()
	s.singleOps.Put(op)
}

// reread is the body Get and CounterGet run under stm.Snap.Run when
// their first read gave up: it finds the key again under the shard's
// bound (re-resolved per attempt: the table may have moved) and keeps
// what it read in the op.
func (op *singleOp) reread(bounds []uint64) error {
	var ok bool
	op.e, op.val, op.n, op.st, ok = op.sh.findS(&op.snap, op.key, op.h, bounds[0])
	if !ok {
		op.snap.GiveUp()
	}
	return nil
}

// counter is CounterGet's result from what a read found in e.
func counter(key string, e *entry, n int64, st state) (int64, bool, error) {
	switch {
	case st != live:
		return 0, false, nil
	case !e.isCounter():
		return 0, false, wrongType(key)
	}
	return n, true, nil
}

// snapRead reads e's word with no transaction and no bound (see
// stm.Snap). ok false sends the caller to reread: the snapshot gave up,
// or e is retired and the key must be looked up again.
func (op *singleOp) snapRead(e *entry) (b []byte, n int64, st state, ok bool) {
	b, n, st, ok = e.snap(&op.snap, unbounded)
	ok = ok && st != retired && op.snap.Valid()
	op.snap.Reset()
	return b, n, st, ok
}

func (op *singleOp) runSet(tx *stm.Tx) error {
	op.clash = nil
	e, _, _, ok := op.sh.own(tx, op.key, op.h, false, &op.made)
	if !ok {
		op.clash = e
		return wrongType(op.key)
	}
	stm.WriteT(tx, &e.b, op.val)
	if op.s.tapOn.Load() {
		op.pend.reset()
		op.pend.ops = append(op.pend.ops, wal.Op{Kind: wal.KindSet, Key: op.key, Val: op.val})
		tx.SetTapData(&op.pend)
	}
	return nil
}

func (op *singleOp) runAdd(tx *stm.Tx) error {
	op.clash = nil
	e, n, st, ok := op.sh.own(tx, op.key, op.h, true, &op.made)
	if !ok {
		op.clash = e
		return wrongType(op.key)
	}
	op.n = op.delta
	if st == live {
		op.n += n // an absent counter counts from zero
	}
	if err := countErr(op.key, op.n); err != nil {
		return err
	}
	tx.Write(e.c, op.n)
	if op.s.tapOn.Load() {
		// Logged absolute (KindCounterSet, the post-transaction value),
		// so replay over a snapshot is idempotent.
		op.pend.reset()
		op.pend.ops = append(op.pend.ops, wal.Op{Kind: wal.KindCounterSet, Key: op.key, N: op.n})
		tx.SetTapData(&op.pend)
	}
	return nil
}

// Get performs a linearizable read of one key (counters are formatted as
// decimal). It loads the entry's lock word, the value and the word again
// (see stm.Snap): no transaction, no clock read, no lock. When a commit
// holds the word or the entry is retired, it finds the key again under
// stm.Snap.Run, which waits the holder out. ok reports whether the key
// exists; a non-nil
// error (retry-budget exhaustion) means the value could not be read and
// val is meaningless. Steady-state Get of a bytes key performs no heap
// allocation.
func (s *Store) Get(key string) (val []byte, ok bool, err error) {
	sh, h := s.route(key)
	e := sh.lookup(key, h)
	if e == nil {
		return nil, false, nil
	}
	op := s.singleOps.Get().(*singleOp)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	if b, n, st, snapped := op.snapRead(e); snapped {
		val, ok = value(e, b, n, st)
		s.singleOps.Put(op) // no operand was set: nothing to release
	} else {
		op.sh, op.key, op.h = sh, key, h
		err = op.snap.Run(context.Background(), []*stm.STM{sh.stm}, op.rereadFn)
		val, ok = value(op.e, op.val, op.n, op.st)
		op.release()
	}
	if sampled {
		s.opHists[OpGet].Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

// CounterGet reads a counter key the way Get reads any key. ok is false
// when the key is absent; a bytes key returns ErrWrongType.
func (s *Store) CounterGet(key string) (val int64, ok bool, err error) {
	sh, h := s.route(key)
	e := sh.lookup(key, h)
	if e == nil {
		return 0, false, nil
	}
	op := s.singleOps.Get().(*singleOp)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	if _, n, st, snapped := op.snapRead(e); snapped {
		val, ok, err = counter(key, e, n, st)
		s.singleOps.Put(op) // no operand was set: nothing to release
	} else {
		op.sh, op.key, op.h = sh, key, h
		if err = op.snap.Run(context.Background(), []*stm.STM{sh.stm}, op.rereadFn); err == nil {
			val, ok, err = counter(key, op.e, op.n, op.st)
		}
		op.release()
	}
	if sampled {
		s.opHists[OpCounterGet].Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return 0, false, err
	}
	return val, ok, nil
}

// Set transactionally writes one bytes key, creating it if absent. The
// value is copied on the way in.
func (s *Store) Set(key string, val []byte) error {
	if err := s.degradedGate(); err != nil {
		return err
	}
	sh, h := s.route(key)
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key, op.h, op.val = sh, key, h, copyVal(val)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := sh.stm.Atomically(op.setFn)
	for err != nil && s.clashed(op.clash) {
		err = sh.stm.Atomically(op.setFn)
	}
	if err == nil {
		err = s.waitDurable(&op.pend)
	} else if len(op.made) > 0 {
		s.collect(op.made)
	}
	op.release()
	if sampled {
		s.opHists[OpSet].Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// CounterAdd transactionally adds delta to a counter key (creating it at
// 0 if absent) and returns the new value. This is the compatibility lane
// on the int64 specialization: no boxing, no formatting, and (steady
// state) no heap allocation. A result the lane reserves fails with
// ErrCounterRange and leaves the key unchanged.
func (s *Store) CounterAdd(key string, delta int64) (int64, error) {
	if err := s.degradedGate(); err != nil {
		return 0, err
	}
	sh, h := s.route(key)
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key, op.h, op.delta = sh, key, h, delta
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := sh.stm.Atomically(op.addFn)
	for err != nil && s.clashed(op.clash) {
		err = sh.stm.Atomically(op.addFn)
	}
	if err == nil {
		err = s.waitDurable(&op.pend)
	} else if len(op.made) > 0 {
		s.collect(op.made)
	}
	out := op.n
	op.release()
	if sampled {
		s.opHists[OpCounterAdd].Observe(time.Since(t0).Nanoseconds())
	}
	return out, err
}

// Delete transactionally removes a key of either kind: it writes absent
// over the value, so the key is gone exactly when the transaction
// commits. It reports whether the key existed. The collector then
// unlinks the entry, and a later Set or CounterAdd creates the key
// afresh — so deletion also frees the key's kind.
func (s *Store) Delete(key string) (existed bool, err error) {
	err = s.Update([]string{key}, func(t *Txn) error {
		existed = t.Delete(key)
		return nil
	})
	return existed, err
}

// MGet reads the given keys at one instant across every shard touched,
// taking no write locks. It reads every key's lock word, value and word
// again with no transaction and no bound (see stm.Snap); a key with no
// entry is read through its shard's keyspace version, as a transaction
// reads it. When that snapshot gives up (a commit holds a word) it reads
// the keys again as a View does, which waits the holder out. Missing
// keys are omitted from the result; counters are formatted as decimal.
// Its sampled latency is recorded as a View's.
func (s *Store) MGet(keys ...string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	op := s.multiOps.Get().(*multiOp)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	var err error
	if !op.snapMGet(keys, out) {
		op.resolve(keys)
		op.viewFn = func(t *ViewTxn) error {
			clear(out) // only the reads of the attempt that stands survive
			for _, k := range keys {
				if v, ok := t.Get(k); ok {
					out[k] = v
				}
			}
			return nil
		}
		err = op.snap.Run(context.Background(), op.stms, op.runView)
	}
	op.release()
	if sampled {
		s.opHists[OpView].Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// snapMGet is MGet's transaction-free read into out. On false, out may
// hold some keys and the caller must read them all again.
func (op *multiOp) snapMGet(keys []string, out map[string][]byte) bool {
	for _, k := range keys {
		sh, h := op.s.route(k)
		e, b, n, st, ok := sh.findS(&op.snap, k, h, unbounded)
		if !ok {
			return false
		}
		if v, present := value(e, b, n, st); present {
			out[k] = v
		}
	}
	return op.snap.Valid()
}

// MSet writes the given bytes keys in one cross-shard transaction.
func (s *Store) MSet(vals map[string][]byte) error {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	return s.Update(keys, func(t *Txn) error {
		for k, v := range vals {
			t.Set(k, v)
		}
		return nil
	})
}

// Txn is the handle passed to Update bodies. Accesses are restricted to
// the shards owning the declared footprint; an access outside it — or
// against a key of the wrong kind — makes the transaction fail with an
// error (no partial effects).
type Txn struct {
	s   *Store
	fp  *footprint // the call's declared keys and shard set
	txs []*stm.Tx  // per-shard transaction handles, aligned with the shard set
	err error

	// tap and pend are the durability effect list (durable.go): every
	// op the body writes, on whichever shard, goes into one pendingOps,
	// attached on first emission to the transaction of the footprint's
	// first shard — the one whose commit tap fires first, while every
	// shard's write locks are still held. A cross-shard transaction is
	// therefore one record.
	tap  bool
	pend *pendingOps

	// deleted lists the entries this attempt's Deletes left (or found)
	// absent, for the collector once the attempt has committed; clash is
	// the other-kind entry a failed write ran into (see Store.clashed);
	// made lists the entries the attempts so far linked, for the collector
	// should the transaction fail.
	deleted []*entry
	clash   *entry
	made    []*entry
}

// emit appends op to the transaction's effect list, attaching the list
// on first use.
func (t *Txn) emit(op wal.Op) {
	if !t.tap {
		return
	}
	if len(t.pend.ops) == 0 {
		t.txs[0].SetTapData(t.pend)
	}
	t.pend.ops = append(t.pend.ops, op)
}

func (t *Txn) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *Txn) outside(key string) error {
	return fmt.Errorf("kv: key %q is outside the transaction footprint", key)
}

// resolve routes key and returns its shard, its hash, and the shard's
// transaction, or fails the transaction (nil shard) when the shard is
// outside the declared footprint.
func (t *Txn) resolve(key string) (*shard, uint64, *stm.Tx) {
	sh, h, j := t.fp.route(t.s, key)
	if j < 0 {
		t.fail(t.outside(key))
		return nil, h, nil
	}
	return sh, h, t.txs[j]
}

// own is resolve and then shard.own, for a write inside the
// transaction. A nil entry means the transaction has failed on key; a
// kind clash is noted for the wrapper.
func (t *Txn) own(key string, counter bool) (tx *stm.Tx, e *entry, n int64, st state) {
	sh, h, tx := t.resolve(key)
	if sh == nil {
		return
	}
	e, n, st, ok := sh.own(tx, key, h, counter, &t.made)
	if !ok {
		t.clash = e
		t.fail(wrongType(key))
		e = nil
	}
	return
}

// Get reads key inside the transaction; ok is false when the key is
// absent (including keys deleted earlier in this transaction). Counter
// keys are formatted as decimal.
func (t *Txn) Get(key string) ([]byte, bool) {
	sh, h, tx := t.resolve(key)
	if sh == nil {
		return nil, false
	}
	return value(sh.find(tx, key, h))
}

// Set writes a bytes key inside the transaction, creating it if absent.
// The value is copied on the way in.
func (t *Txn) Set(key string, val []byte) {
	tx, e, _, _ := t.own(key, false)
	if e == nil {
		return
	}
	b := copyVal(val)
	stm.WriteT(tx, &e.b, b)
	t.emit(wal.Op{Kind: wal.KindSet, Key: key, Val: b})
}

// Add adds delta to a counter key inside the transaction and returns the
// new value; an absent key — never created, or deleted earlier in this
// transaction — counts from zero. The key is routed and resolved once
// (this is the hot path of TXN ADD and the transfer benchmarks).
func (t *Txn) Add(key string, delta int64) int64 {
	tx, e, n, st := t.own(key, true)
	if e == nil {
		return 0
	}
	if st == live {
		delta += n
	}
	return t.putCount(tx, e, key, delta)
}

// CounterSet sets a counter key to an absolute value inside the
// transaction, creating it if absent. It is the write the replication
// apply path uses to replay KindCounterSet records (counters are
// logged absolute so replay is idempotent), and is useful anywhere an
// absolute counter write is wanted transactionally.
func (t *Txn) CounterSet(key string, n int64) {
	if tx, e, _, _ := t.own(key, true); e != nil {
		t.putCount(tx, e, key, n)
	}
}

// putCount writes n to a counter entry and logs it absolute; a value the
// lane reserves fails the transaction instead.
func (t *Txn) putCount(tx *stm.Tx, e *entry, key string, n int64) int64 {
	if err := countErr(key, n); err != nil {
		t.fail(err)
		return 0
	}
	tx.Write(e.c, n)
	t.emit(wal.Op{Kind: wal.KindCounterSet, Key: key, N: n})
	return n
}

// ensure makes key present as the given kind inside the transaction —
// the kind's zero value if it holds none — and returns its entry (nil
// when the transaction failed on it).
func (t *Txn) ensure(key string, counter bool) *entry {
	tx, e, _, st := t.own(key, counter)
	if e == nil || st == live {
		return e
	}
	if counter {
		t.putCount(tx, e, key, 0)
	} else {
		stm.WriteT(tx, &e.b, []byte(nil))
		t.emit(wal.Op{Kind: wal.KindSet, Key: key})
	}
	return e
}

// Delete removes a key of either kind inside the transaction, reporting
// whether it existed: the key reads as absent from here on, and a later
// Set/Add of the same key in this transaction is just the next write of
// the same word (so the kind stays fixed until the transaction ends).
func (t *Txn) Delete(key string) bool {
	sh, h, tx := t.resolve(key)
	if sh == nil {
		return false
	}
	e, _, _, st := sh.find(tx, key, h)
	if e != nil {
		t.deleted = append(t.deleted, e)
	}
	if st != live {
		return false
	}
	e.write(tx, absent)
	t.emit(wal.Op{Kind: wal.KindDelete, Key: key})
	return true
}

// footprint is the resolved key list of one Update or View: every
// declared key hashed once, and where each shard sits in the shard set.
type footprint struct {
	keys []string // the declared keys, copied so the caller may reuse its slice
	hs   []uint64 // fnv1a of each declared key
	next int      // the declared key the body is expected to read next
	pos  []int32  // per shard: 1 + its index in the shard set, 0 outside it
	set  []uint64 // shard bitset, zero between calls
}

// hash returns fnv1a(key), reusing the stored hash when key is the next
// declared key, so a body that reads its declared keys in declared order
// hashes none of them. Any other key is hashed afresh.
func (fp *footprint) hash(key string) uint64 {
	if i := fp.next; i < len(fp.keys) && fp.keys[i] == key {
		fp.next++
		return fp.hs[i]
	}
	return fnv1a(key)
}

// route returns the shard owning key, key's hash, and the shard's index
// in the shard set — negative when the shard is outside the footprint.
func (fp *footprint) route(s *Store, key string) (*shard, uint64, int) {
	h := fp.hash(key)
	i := h & s.mask
	return s.shards[i], h, int(fp.pos[i]) - 1
}

// multiOp is pooled per-call scratch for the footprint-scoped operations
// (Update, View): the resolved footprint, the ascending shard set with
// its aligned instance list, and the reusable transaction handle, with
// the attempt bodies bound once at pool fill so the per-attempt plumbing
// allocates nothing.
type multiOp struct {
	s    *Store
	fp   footprint
	idxs []int // the footprint's shard set, ascending
	stms []*stm.STM
	pend pendingOps // the durability effect list
	txn  Txn
	view ViewTxn

	updateFn  func(*Txn) error     // the user's Update body
	viewFn    func(*ViewTxn) error // the user's View body
	runUpdate func([]*stm.Tx) error
	runView   func([]uint64) error

	snap stm.Snap // MGet's and View's transaction-free read

	// tick is the latency-sampling tick; like singleOp's it survives
	// release on purpose.
	tick uint64
}

// resolve hashes each key once, keeping the hashes for the body, and
// builds the shard set in ascending order — the two-phase lock order —
// from a bitset of the shards touched.
func (op *multiOp) resolve(keys []string) {
	fp := &op.fp
	fp.keys = append(fp.keys[:0], keys...)
	fp.hs = fp.hs[:0]
	for _, k := range keys {
		h := fnv1a(k)
		fp.hs = append(fp.hs, h)
		i := h & op.s.mask
		fp.set[i>>6] |= 1 << (i & 63)
	}
	for w, word := range fp.set {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			op.idxs = append(op.idxs, i)
			op.stms = append(op.stms, op.s.shards[i].stm)
			fp.pos[i] = int32(len(op.idxs))
		}
		fp.set[w] = 0
	}
}

func (op *multiOp) update(txs []*stm.Tx) error {
	t := &op.txn
	t.s = op.s
	t.fp = &op.fp
	op.fp.next = 0
	t.txs = txs
	t.err = nil
	t.deleted, t.clash = nil, nil // only the committed attempt's deletes are collected
	if t.tap = op.s.tapOn.Load(); t.tap {
		t.pend = &op.pend
		op.pend.reset() // only the committed attempt's ops are logged
	}
	if err := op.updateFn(t); err != nil {
		return err
	}
	return t.err
}

// viewAttempt runs the View body once over op.snap, under bounds
// aligned with the shard set (see stm.Snap.Run).
func (op *multiOp) viewAttempt(bounds []uint64) error {
	op.fp.next = 0
	op.view = ViewTxn{s: op.s, fp: &op.fp, sn: &op.snap, bounds: bounds}
	t := &op.view
	if err := op.viewFn(t); err != nil {
		return err
	}
	return t.err
}

// release drops the per-call references (keeping the scratch slices'
// capacity) and returns the op to the pool.
func (op *multiOp) release() {
	s := op.s
	for _, i := range op.idxs {
		op.fp.pos[i] = 0
	}
	op.idxs = op.idxs[:0]
	clear(op.fp.keys)
	op.fp.keys = op.fp.keys[:0]
	clear(op.stms)
	op.stms = op.stms[:0]
	op.pend.reset() // drop key/value references, keep capacity
	op.txn = Txn{}
	op.view = ViewTxn{}
	op.updateFn, op.viewFn = nil, nil
	op.snap.Reset()
	s.multiOps.Put(op)
}

// Update runs fn as one transaction over the shards owning keys (the
// transaction's footprint). The per-shard transactions two-phase in
// ascending shard order: every shard prepares (locks + validation) before
// any publishes, so concurrent transactional readers never observe a
// partial cross-shard commit, and the consistent lock order avoids
// deadlock. fn may touch any key routed to a declared shard, not just the
// declared keys; it may be re-executed on conflict and must be pure. The
// declared keys are hashed once, up front: a body that reads them in
// declared order hashes none of them again.
func (s *Store) Update(keys []string, fn func(*Txn) error) error {
	return s.UpdateCtx(context.Background(), keys, fn)
}

// UpdateCtx is Update honoring ctx between retry attempts (see
// stm.AtomicallyMultiCtx): cancellation surfaces as an error wrapping
// stm.ErrCanceled and the context's error.
func (s *Store) UpdateCtx(ctx context.Context, keys []string, fn func(*Txn) error) error {
	if err := s.degradedGate(); err != nil {
		return err
	}
	op := s.multiOps.Get().(*multiOp)
	op.resolve(keys)
	op.updateFn = fn
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := stm.AtomicallyMultiCtx(ctx, op.stms, op.runUpdate)
	for errors.Is(err, ErrWrongType) && s.clashed(op.txn.clash) {
		err = stm.AtomicallyMultiCtx(ctx, op.stms, op.runUpdate)
	}
	// The collector's share: the deletes of a transaction that committed,
	// or the entries linked by one that failed.
	leftover := op.txn.deleted
	if err != nil {
		leftover = op.txn.made
	}
	if err == nil {
		err = s.waitDurable(&op.pend)
	}
	op.release()
	if sampled {
		s.opHists[OpUpdate].Observe(time.Since(t0).Nanoseconds())
	}
	// Collection keys off the commit, not the durable wait: a failed wait
	// reports the log's sticky error, but the deletes are committed.
	if len(leftover) > 0 {
		s.collect(leftover)
	}
	return err
}

// ViewTxn is the handle passed to View bodies: a consistent, read-only,
// possibly cross-shard snapshot. It reads through a bounded stm.Snap:
// every read refuses a word committed after the attempt's bounds were
// loaded, so the body is opaque. What it reads, at any point of any
// attempt, is the committed state of the instant the last bound was
// loaded, so it never sees half of a cross-shard commit. (A plain store
// into a privatized key is not a commit; see View.)
type ViewTxn struct {
	s      *Store
	fp     *footprint // the call's declared keys and shard set
	sn     *stm.Snap
	bounds []uint64 // the snapshot's bounds, aligned with the shard set
	err    error
}

func (t *ViewTxn) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// find reads key within the view's footprint; the view fails when the
// key's shard is outside it.
func (t *ViewTxn) find(key string) (*entry, []byte, int64, state) {
	sh, h, j := t.fp.route(t.s, key)
	if j < 0 {
		t.fail(fmt.Errorf("kv: key %q is outside the view footprint", key))
		return nil, nil, 0, absent
	}
	e, b, n, st, ok := sh.findS(t.sn, key, h, t.bounds[j])
	if !ok {
		t.sn.GiveUp()
	}
	return e, b, n, st
}

// Get reads key inside the view; ok is false when the key is absent.
// Counter keys are formatted as decimal.
func (t *ViewTxn) Get(key string) ([]byte, bool) {
	return value(t.find(key))
}

// Counter reads a counter key inside the view on the int64 lane (no
// boxing, no formatting). ok is false when the key is absent or holds
// bytes.
func (t *ViewTxn) Counter(key string) (int64, bool) {
	e, _, n, st := t.find(key)
	if st != live || !e.isCounter() {
		return 0, false
	}
	return n, true
}

// View runs fn over a multi-key snapshot of the shards owning keys (the
// view's footprint), consistent across shards and opaque: what fn
// reads is the committed state of one instant, on every attempt,
// including ones that are thrown away. fn reads through a stm.Snap,
// with no transaction, under stm.Snap.Run: each shard's bound is loaded
// before the attempt's first read, and a read gives up on a held word
// or one committed after its shard's bound. An attempt whose reads all
// stood is the state at its last bound load and stands as it is: a
// word that moves after fn read it does not retry fn. A word committed
// after the bound retries fn at once; a held word retries it a few
// times and then parks on the word until the holder releases it. A
// View takes no lock and no quiescence slot, so Privatize's fence does
// not wait for one: an attempt may read a privatized key's plain store
// beside the flag from before the fence. The fence moves the shard's
// fence epoch, so that attempt loads its words again after fn, finds
// the flag's word moved and runs again; View never returns it. fn may
// read any key routed to a declared shard; it may be re-executed and
// must be pure. An error it returns is returned as is. As in Update, a
// body that reads the declared keys in declared order hashes none of
// them again.
func (s *Store) View(keys []string, fn func(*ViewTxn) error) error {
	return s.ViewCtx(context.Background(), keys, fn)
}

// ViewCtx is View honoring ctx between attempts and while parked.
func (s *Store) ViewCtx(ctx context.Context, keys []string, fn func(*ViewTxn) error) error {
	op := s.multiOps.Get().(*multiOp)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	op.resolve(keys)
	op.viewFn = fn
	err := op.snap.Run(ctx, op.stms, op.runView)
	op.release()
	if sampled {
		s.opHists[OpView].Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// Privatize fences the shards owning keys and returns the keys' raw
// typed handles, aligned with keys (creating missing keys as nil-valued
// bytes keys). When it returns, every transaction admitted before the
// call on those shards has resolved, so the §3.5 delayed-writeback race
// is excluded and the caller may use plain Load/Store on the handles —
// provided it has already made the keys logically private (e.g. cleared a
// routing flag inside a transaction), exactly as in the paper's
// privatization idiom. Counter keys return ErrWrongType.
func (s *Store) Privatize(keys ...string) ([]*stm.TVar[[]byte], error) {
	entries, err := s.bytesEntries(keys)
	if err != nil {
		return nil, err
	}
	vars := make([]*stm.TVar[[]byte], len(keys))
	for i, e := range entries {
		vars[i] = &e.b
	}
	op := s.multiOps.Get().(*multiOp)
	op.resolve(keys)
	for _, inst := range op.stms {
		inst.Quiesce()
	}
	op.release()
	return vars, nil
}

// bytesEntries returns the keys' entries, every key present as a bytes
// key when it returns: one transaction creates the missing ones with a
// nil value, so a counter among them fails the lot with ErrWrongType
// and creates nothing. A plain store into an entry handed out here lands
// in a present key — it cannot be lost to the collector, which only
// takes absent entries.
func (s *Store) bytesEntries(keys []string) ([]*entry, error) {
	entries := make([]*entry, len(keys))
	err := s.Update(keys, func(t *Txn) error {
		for i, k := range keys {
			entries[i] = t.ensure(k, false)
		}
		return nil
	})
	return entries, err
}

// Publish plainly stores vals (copied on the way in) and then commits a
// sentinel transaction across the owning shards. A transactional reader
// ordered after the sentinel write (any transaction on the shard that
// starts after Publish returns, or one that observes the bumped sentinel)
// also sees the plain writes: publication by direct dependency, safe on
// every engine without fences. Counter keys return ErrWrongType before
// any write happens.
func (s *Store) Publish(vals map[string][]byte) error {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	entries, err := s.bytesEntries(keys)
	if err != nil {
		return err
	}
	copies := make([][]byte, len(keys))
	for j, k := range keys {
		copies[j] = copyVal(vals[k])
		entries[j].b.Store(copies[j])
	}
	// The sentinel transaction carries the published values as SET ops,
	// so publication is logged (and fed to subscribers) even though the
	// value writes themselves were plain; across shards it is one
	// record, recovered whole or not at all like any other.
	return s.Update(keys, func(t *Txn) error {
		for j, k := range keys {
			t.publish(k, copies[j])
		}
		return nil
	})
}

// publish bumps the publication sentinel of key's shard and logs val as
// the key's SET.
func (t *Txn) publish(key string, val []byte) {
	sh, _, tx := t.resolve(key)
	if sh == nil {
		return
	}
	pub := sh.pub
	tx.Write(pub, tx.Read(pub)+1)
	t.emit(wal.Op{Kind: wal.KindSet, Key: key, Val: val})
}

// Stats is an aggregate snapshot across shards. The JSON field names are
// a stable wire format — the admin plane and bench reports emit them.
type Stats struct {
	Shards          int    `json:"shards"`
	Keys            int    `json:"keys"`
	FastGets        uint64 `json:"fast_gets"`
	Commits         uint64 `json:"commits"`
	Conflicts       uint64 `json:"conflicts"`
	UserAborts      uint64 `json:"user_aborts"`
	MultiCommits    uint64 `json:"multi_commits"`
	ReadOnlyCommits uint64 `json:"read_only_commits"`
	Quiesces        uint64 `json:"quiesces"`

	// Blocking counters (WaitGet/Watch and any blocked Update bodies):
	// parks taken, parks ended by a commit notification, and parks ended
	// by the safety-net timer (see stm.Stats).
	Waits           uint64 `json:"waits"`
	Wakeups         uint64 `json:"wakeups"`
	SpuriousWakeups uint64 `json:"spurious_wakeups"`
}

// Stats aggregates per-shard STM counters and store-level counters.
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for i, sh := range s.shards {
		st.FastGets += s.fastGets[i].n.Load()
		st.Keys += int(sh.keys.Load())
		snap := sh.stm.Snapshot()
		st.Commits += snap.Commits
		st.Conflicts += snap.Conflicts
		st.UserAborts += snap.UserAborts
		st.MultiCommits += snap.MultiCommits
		st.ReadOnlyCommits += snap.ReadOnlyCommits
		st.Quiesces += snap.Quiesces
		st.Waits += snap.Waits
		st.Wakeups += snap.Wakeups
		st.SpuriousWakeups += snap.SpuriousWakeups
	}
	return st
}

// String implements fmt.Stringer for diagnostics.
func (st Stats) String() string {
	return fmt.Sprintf("kv: shards=%d keys=%d fastgets=%d commits=%d conflicts=%d user-aborts=%d multi-commits=%d ro-commits=%d quiesces=%d waits=%d wakeups=%d spurious-wakeups=%d",
		st.Shards, st.Keys, st.FastGets, st.Commits, st.Conflicts, st.UserAborts, st.MultiCommits, st.ReadOnlyCommits, st.Quiesces, st.Waits, st.Wakeups, st.SpuriousWakeups)
}
