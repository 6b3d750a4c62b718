// Package stm is a software transactional memory for Go that realizes the
// paper's implementation model (§5): transactions provide ordering between
// directly dependent transactions (publication is safe by construction),
// while mixed-mode idioms without direct dependencies (privatization)
// require quiescence fences.
//
// The versioning strategy is pluggable: every strategy implements the
// unexported engine interface (one read and one write hook per location,
// whatever its shape, plus the lock/validate/commit/rollback phases) and is
// selected through the exported Engine enum, which is backed by a
// registry (Engines, ParseEngine). Three engines are registered, and an
// instance's engine is fixed when New creates it:
//
//   - Lazy: lazy versioning — writes are buffered and applied at
//     commit under per-variable versioned locks, validated against a
//     global version clock. Exhibits the delayed-writeback privatization
//     anomaly of §3.5/§5 unless fences are used.
//   - Eager: encounter-time locking with an undo log — writes are applied
//     in place and rolled back on abort. Exhibits the speculative-
//     lost-update and dirty-read anomalies of §3.4 under mixed access.
//   - GlobalLock: a single instance mutex around each transaction,
//     which inside it writes as Eager does; the strongest (and slowest)
//     baseline.
//
// Transactional locations come in two shapes sharing one engine, one
// write set and one undo log:
//
//   - Var holds an int64 in an atomic.Int64 — the zero-cost word
//     specialization used for counters and hot numeric state.
//   - TVar[T] holds any T behind a word-sized atomic.Pointer[T] box, so
//     strings, byte slices and structs get the same mixed-mode and
//     transactional semantics at the cost of one pointer indirection.
//
// Mixed-mode access is supported through Load and Store on both shapes,
// which are plain (non-transactional) atomic accesses. Quiesce implements
// the quiescence fence ⟨Qx⟩: it waits for every transaction that was
// active when the fence began (a conservative, location-oblivious
// implementation of WF12/HBCQ/HBQB).
package stm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const lockedBit = 1

// varBase is the engine-facing core every transactional variable embeds:
// a stable identity for deterministic lock ordering, the owning instance
// (whose waiter table parked transactions register in — see notify.go),
// and a TL2-style versioned lock packed as version<<1 | lockedBit. It is
// 24 bytes, so a TVar is 32: a variable embedded by value in a larger
// struct (internal/kv's entry) costs that struct half a cache line.
type varBase struct {
	id    uint64
	owner *STM
	meta  atomic.Uint64
}

// init gives a zero varBase its identity. Fields are set one by one: a
// varBase holds an atomic and is never copied.
func (vb *varBase) init(s *STM) {
	vb.id = s.nextVarID.Add(1)
	vb.owner = s
}

func version(meta uint64) uint64 { return meta >> 1 }
func isLocked(meta uint64) bool  { return meta&lockedBit != 0 }

// tryLock CASes the lock bit in, failing when the variable is locked or
// was written after the snapshot rv. On success the pre-lock meta is
// returned for restoration on abort; on failure the sampled meta is
// returned so the caller can attribute the conflict (park on a locked
// variable, retry immediately past a too-new one).
func (vb *varBase) tryLock(rv uint64) (uint64, bool) {
	m := vb.meta.Load()
	if isLocked(m) || version(m) > rv || !vb.meta.CompareAndSwap(m, m|lockedBit) {
		return m, false
	}
	return m, true
}

// Var is a transactional variable holding an int64 — the word-sized
// specialization of the typed API. Its value lives in an atomic.Int64 and
// is accessed with atomic loads/stores so that mixed-mode access is a
// race only at the model level, not a Go data race.
type Var struct {
	varBase
	val atomic.Int64
}

// Load performs a plain (non-transactional) read.
func (v *Var) Load() int64 { return v.val.Load() }

// Store performs a plain (non-transactional) write. It does not interact
// with the transactional version clock: ordering against transactions is
// the programmer's responsibility, exactly as in the paper's mixed-race
// model (use Quiesce for privatization).
func (v *Var) Store(x int64) { v.val.Store(x) }

// loc is the engine-facing view of a transactional location, whatever its
// shape: what orders the engines is the version word in varBase, never
// the value's type. A value travels as a pair (n, p) of which each shape
// uses its own half — n for a Var, p (the *T box) for a TVar[T] — so the
// int64 never becomes a heap box and a pointer never passes through an
// int. Converting either pointer type to loc does not allocate.
type loc interface {
	base() *varBase
	load() (n int64, p any)
	store(n int64, p any)
}

func (vb *varBase) base() *varBase { return vb }

func (v *Var) load() (int64, any)   { return v.val.Load(), nil }
func (v *Var) store(n int64, _ any) { v.val.Store(n) }

// Option configures an STM instance (see New).
type Option func(*config)

type config struct {
	engine      Engine
	maxRetries  int
	sampleEvery uint64
}

// WithEngine selects the versioning strategy (default Lazy).
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithMaxRetries bounds the commit attempts per Atomically call
// (default 1,000,000).
func WithMaxRetries(n int) Option { return func(c *config) { c.maxRetries = n } }

// WithMetricsSampling sets the latency-sampling period: one transaction
// in every n carries a timestamp (default 256; n is rounded up to a power
// of two so the decision is a mask test). n <= 1 samples every
// transaction — the deterministic setting tests use. Park durations and
// conflict attribution are always recorded regardless of n.
func WithMetricsSampling(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.sampleEvery = uint64(n)
	}
}

// Stats are cumulative counters, safe to read concurrently. The
// counters are grouped by the path that bumps them — commit, conflict,
// park — with a cache line of padding between groups, so the commit
// path's adds do not false-share with the conflict path's on many-core
// hardware (each group still shares its own line: that sharing is true,
// not false).
type Stats struct {
	Commits         atomic.Uint64
	MultiCommits    atomic.Uint64 // commits spanning ≥ 2 instances, through AtomicallyMulti or AtomicallyReadMulti
	ReadOnlyCommits atomic.Uint64 // valid snapshots (Snap.Valid), AtomicallyRead's and Snap.Run's among them
	_               [40]byte      // commit-path group ends its cache line here

	Conflicts  atomic.Uint64
	UserAborts atomic.Uint64
	Quiesces   atomic.Uint64 // quiescence fences begun, bumped before each waits: the fence epoch a bounded Snap checks
	_          [40]byte      // conflict-path group ends its cache line here

	// Blocking subsystem (see notify.go). Waits counts parks — attempts
	// that registered their footprint, revalidated and went to sleep;
	// Wakeups counts parks ended by a commit notification (or the
	// quiescence broadcast); SpuriousWakeups counts parks ended by the
	// bounded fallback timer with no notification — the rare windows
	// notification cannot cover, such as a lock-holder that aborted.
	// Parks ended by context cancellation count in neither.
	Waits           atomic.Uint64
	Wakeups         atomic.Uint64
	SpuriousWakeups atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats. The JSON field names
// are a stable wire format — the admin plane and bench reports emit
// them; renaming one is a breaking change.
type StatsSnapshot struct {
	Commits         uint64 `json:"commits"`
	Conflicts       uint64 `json:"conflicts"`
	UserAborts      uint64 `json:"user_aborts"`
	MultiCommits    uint64 `json:"multi_commits"`
	ReadOnlyCommits uint64 `json:"read_only_commits"`
	Quiesces        uint64 `json:"quiesces"`
	Waits           uint64 `json:"waits"`
	Wakeups         uint64 `json:"wakeups"`
	SpuriousWakeups uint64 `json:"spurious_wakeups"`
}

// STM is a transactional memory instance. Vars belong to the instance that
// created them; mixing instances is a programming error.
//
// structlayout (pinned — keep when editing): the struct is laid out in
// three bands so that many-core commit traffic never false-shares.
//
//	band 1  read-mostly configuration and pointers, written only by New
//	        (engine … RollbackDelay): any number of cores may cache
//	        these lines shared; nothing on the hot path stores to them.
//	band 2  write-hot words, one per 64-byte cache line, each isolated
//	        by a cacheLinePad *before* it (the pad absorbs the tail of
//	        the previous line) — clock (every begin loads it and every
//	        writing commit RMWs it), txSeq (every begin RMWs it), and
//	        nextVarID (every NewVar/NewTVar, which kv's key-insert path
//	        hits at runtime); a trailing pad closes the band.
//	band 3  self-padding aggregates: stats (internally grouped by path
//	        — see Stats), waiters (gate word and buckets padded in
//	        notify.go), and the pools (sync.Pool shards itself per P).
//
// TestSTMHotFieldLayout pins the band-2 isolation with unsafe.Offsetof,
// so an accidental reorder fails the build's tests rather than a
// 16-core benchmark three PRs later.
type STM struct {
	// --- band 1: read-mostly ---
	engine     Engine
	eng        engine // the registered implementation behind the enum
	maxRetries int
	glock      chan struct{} // global-lock engine's mutex (chan for TryLock-free simplicity)
	slots      []slot        // Quiesce's active-transaction table: 8×GOMAXPROCS, at least 64

	// metrics is the observability surface; sampleMask gates which
	// transactions carry a latency timestamp (period-1, period a power
	// of two).
	metrics    *Metrics
	sampleMask uint64

	// commitTap, when installed (SetCommitTap), is invoked by
	// commitPrepared for every committing attempt that attached a
	// payload with Tx.SetTapData — at the serialization point, before
	// the write set is published. Behind a pointer so it can be
	// installed on a live instance with one atomic store.
	commitTap atomic.Pointer[func(any)]

	// Test hooks, called at anomaly windows when non-nil. WritebackDelay
	// runs after validation and before lazy writeback; RollbackDelay runs
	// before an eager or global-lock undo is applied. They let tests and
	// the stress harness make the §3.4/§3.5 anomaly windows deterministic.
	WritebackDelay func()
	RollbackDelay  func()

	// --- band 2: write-hot words, one per cache line ---
	_         cacheLinePad
	clock     atomic.Uint64 // global version clock (TL2); ops in clock.go
	_         cacheLinePad
	txSeq     atomic.Uint64 // transaction admission sequence (quiescence)
	_         cacheLinePad
	nextVarID atomic.Uint64
	_         cacheLinePad

	// --- band 3: self-padding aggregates ---

	stats Stats

	// waiters is the commit-notification table: parked transactions
	// register their footprints here and every commit announces its
	// write set through it (see notify.go).
	waiters waitTable

	// txPool recycles attempt handles: begin takes one, finishTx resets
	// it (retaining slice capacity) and puts it back, so the steady-state
	// transaction path allocates nothing.
	txPool sync.Pool

	// waiterPool recycles park registrations the same way.
	waiterPool sync.Pool
}

// cacheLinePad isolates the band-2 hot words of STM: placed before each
// word, it guarantees at least 64 bytes between any two of them (and
// between the first word and band 1), so a store to one never
// invalidates another's line.
type cacheLinePad struct{ _ [64]byte }

type slot struct {
	seq atomic.Uint64 // 0 = free, otherwise transaction admission number
	_   [7]uint64     // pad to a cache line to avoid false sharing
}

// New creates an STM instance. It panics on an unregistered engine — the
// enum values and ParseEngine results are always registered, so this only
// trips on a hand-rolled Engine literal.
func New(opts ...Option) *STM {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.maxRetries == 0 {
		c.maxRetries = 1_000_000
	}
	info, ok := lookupEngine(c.engine)
	if !ok {
		panic(fmt.Sprintf("stm: engine %v is not registered", c.engine))
	}
	se := c.sampleEvery
	if se == 0 {
		se = 256
	}
	if se&(se-1) != 0 {
		se = 1 << bits.Len64(se) // round up to a power of two
	}
	s := &STM{
		engine:     c.engine,
		eng:        info.impl,
		maxRetries: c.maxRetries,
		glock:      make(chan struct{}, 1),
		slots:      make([]slot, max(8*runtime.GOMAXPROCS(0), 64)),
		sampleMask: se - 1,
		metrics:    &Metrics{},
	}
	s.txPool.New = func() any {
		tx := &Tx{s: s, e: s.eng}
		tx.txs = []*Tx{tx}
		return tx
	}
	s.waiterPool.New = func() any {
		return &waiter{s: s, ch: make(chan struct{}, 1)}
	}
	return s
}

// Engine returns the instance's engine.
func (s *STM) Engine() Engine { return s.engine }

// SetCommitTap installs f as the instance's commit tap, replacing any
// previous tap (nil removes it). The tap is called once per committing
// attempt that attached a payload with Tx.SetTapData, at the attempt's
// serialization point: the commit outcome is already decided (write
// locks held, read set validated) but the write set is not yet
// published and the locks not yet released.
//
// What that orders is exactly what the locks order. Two writers of one
// variable tap in their commit order (write→write). A transaction that
// reads a value taps after the writer of that value (write→read): the
// writer tapped before it published, and the reader read after. Nothing
// else is ordered: a reader's snapshot is not ordered against a later
// writer it did not conflict with — that writer may tap first — and
// nothing may rely on it being so. Taps of non-conflicting commits may
// run concurrently; the callee orders them itself if it must. Of an
// AtomicallyMulti commit, the first instance's tap runs while every
// instance's write locks are held.
//
// f runs on the committing goroutine with commit-time locks held: it
// must be fast, must not block on I/O, and must not run transactions
// on this instance. Installing a tap costs committing transactions
// nothing until a body attaches tap data (one nil check otherwise).
func (s *STM) SetCommitTap(f func(data any)) {
	if f == nil {
		s.commitTap.Store(nil)
		return
	}
	s.commitTap.Store(&f)
}

// NewVar creates an int64 transactional variable with an initial value.
// name says at the call site what the variable is for; it is not kept.
func (s *STM) NewVar(name string, init int64) *Var {
	v := new(Var)
	v.Init(s, init)
	return v
}

// Init makes the zero Var at v a variable of s holding init, in place —
// for a Var embedded by value in a struct of the caller's. It must run
// once, before anything else can reach v.
func (v *Var) Init(s *STM, init int64) {
	v.varBase.init(s)
	v.val.Store(init)
}

// Snapshot returns current statistics.
func (s *STM) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Commits:         s.stats.Commits.Load(),
		Conflicts:       s.stats.Conflicts.Load(),
		UserAborts:      s.stats.UserAborts.Load(),
		MultiCommits:    s.stats.MultiCommits.Load(),
		ReadOnlyCommits: s.stats.ReadOnlyCommits.Load(),
		Quiesces:        s.stats.Quiesces.Load(),
		Waits:           s.stats.Waits.Load(),
		Wakeups:         s.stats.Wakeups.Load(),
		SpuriousWakeups: s.stats.SpuriousWakeups.Load(),
	}
}

// acquireSlot registers a transaction for quiescence tracking and returns
// its slot index.
func (s *STM) acquireSlot() (int, uint64) {
	seq := s.txSeq.Add(1)
	for {
		for i := range s.slots {
			if s.slots[i].seq.Load() == 0 && s.slots[i].seq.CompareAndSwap(0, seq) {
				return i, seq
			}
		}
		runtime.Gosched()
	}
}

func (s *STM) releaseSlot(i int) { s.slots[i].seq.Store(0) }

// Quiesce implements a quiescence fence: it returns only after every
// transaction admitted before the call has resolved (committed or
// aborted). The vars arguments document intent (⟨Qx⟩ names a location);
// this implementation is conservative and waits for all transactions,
// which soundly over-approximates WF12/HBCQ/HBQB.
func (s *STM) Quiesce(vars ...*Var) {
	_ = vars
	s.stats.Quiesces.Add(1)
	snap := s.txSeq.Load()
	for spins := 0; ; spins++ {
		busy := false
		for i := range s.slots {
			if seq := s.slots[i].seq.Load(); seq != 0 && seq <= snap {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
	// Privatization must not strand waiters: once the fence passes, the
	// privatized locations may change through plain writes that no
	// commit will announce, so every transaction parked at fence time is
	// woken to re-read the world (see waitTable.broadcast).
	s.waiters.broadcast()
}

// String implements fmt.Stringer for diagnostics.
func (s *STM) String() string {
	st := s.Snapshot()
	return fmt.Sprintf("stm(%s): commits=%d conflicts=%d user-aborts=%d",
		s.engine, st.Commits, st.Conflicts, st.UserAborts)
}
