package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// Durability: the store's commits stream into one write-ahead log
// (internal/wal), sequenced by the STM commit tap so log order is
// commit order, and recovery replays snapshot + log tail back into the
// store on Open.
//
// The flow of one durable write: the operation's transaction body
// records its effects as wal.Ops in a pooled pendingOps and attaches it
// with Tx.SetTapData — a cross-shard Update attaches one list, all its
// shards' ops, to the transaction of its first shard, whose tap fires
// while the commit still holds every shard's write locks. If (and only
// if) the attempt commits, the tap runs at the serialization point,
// takes the next store-wide log sequence number (LSN) under the feed
// lock, hands the encoded record to the log's group-commit batcher, and
// fans the ops out to subscribers (feed.go) — all without blocking on
// I/O, so commits are never held up by the disk. At the Fsync level the
// operation then waits (after its transaction is fully committed and
// unlocked) for the batcher's fsync to cover its LSN.
//
// The LSN order is the order the commit locks impose and no more: two
// writes of one key, and a write before every transaction that reads
// what it wrote (see stm.STM.SetCommitTap). The log, the changefeed, the
// replica and the checkpoint rely on nothing else. One record per
// transaction makes a cross-shard commit atomic by framing: recovery
// and a replica get all of it or none of it.
//
// Ops are logged in absolute form — counter writes as KindCounterSet
// with the post-transaction value — so replay is idempotent, which is
// what lets a checkpoint read the store while writers commit.
//
// Key creation and deletion are ordinary logged writes — a key exists
// in the log exactly when a committed SET or CSET made it exist. Two
// mixed-mode paths are, by design, outside the log: the entries
// EnsureKeys/EnsureCounters link already present (bulk loading's
// shortcut, a plain write into an entry no transaction can reach yet,
// shard by shard: a nil or 0 key no transaction wrote reappears on its
// first write) and plain writes through Privatize'd handles. Publish IS
// logged: its sentinel transaction carries the published values as SET
// ops. Recovery writes plainly too, each shard on its own (see
// Store.Recover).

// ErrNotDurable reports a durability operation on a store opened
// without WithDurability.
var ErrNotDurable = errors.New("kv: store has no durability configured")

// pendingOps is one transaction's effect list, attached to the attempt
// via Tx.SetTapData and consumed by the commit tap, which stamps it
// with the LSN it assigned.
type pendingOps struct {
	ops []wal.Op
	seq uint64
}

func (p *pendingOps) reset() {
	clear(p.ops)
	p.ops = p.ops[:0]
	p.seq = 0
}

// feed is the store's commit stream: the LSN counter, the log (nil
// without durability), and the lock under which the tap assigns the
// LSN, appends and fans out — making all three agree on one order.
// cross counts the records that wrote more than one shard.
type feed struct {
	mu    sync.Mutex
	lsn   uint64
	log   *wal.Log
	cross uint64
}

// position returns the newest LSN assigned.
func (f *feed) position() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lsn
}

// durState is the store's durability state (nil when disabled).
type durState struct {
	dir   string
	level wal.Level
	opts  wal.Options // template for the log
	m     wal.Metrics
	res   wal.RecoverResult // consumed by attachLogs
	info  RecoverInfo

	recovered bool
	attached  bool
	closed    atomic.Bool

	// Degraded mode (degrade.go): the flag and first error latch on the
	// WAL's OnFail hook; shed counts the commits the failed log refused.
	degraded atomic.Bool
	degErr   atomic.Pointer[error]
	shed     atomic.Uint64

	// fs is the filesystem seam threaded into every wal call (nil =
	// the real filesystem); fault-injection tests swap it.
	fs wal.FS

	ckptRun   sync.Mutex // one checkpoint at a time
	ckpts     atomic.Uint64
	ckptFails atomic.Uint64

	// ckptMu + ckptWG fence rotation-triggered checkpoints against
	// Close: the mutex makes "passed the closed check" and "counted in
	// the WaitGroup" one atomic step, so Close can drain stragglers
	// before it closes the log. attachLogs holds the mutex while it
	// opens the log, so a log that rotates as it opens has its
	// checkpoint wait for the whole attach.
	ckptMu sync.Mutex
	ckptWG sync.WaitGroup
}

// RecoverInfo summarizes a store's boot-time recovery. The JSON names
// are a stable wire format (STATS WAL emits it).
type RecoverInfo struct {
	Records         int    `json:"records"`          // log records replayed
	SnapshotRecords int    `json:"snapshot_records"` // snapshot records applied
	Snapshots       int    `json:"snapshots"`        // 1 when recovery started from a snapshot
	Truncations     int    `json:"truncations"`      // 1 when a torn tail was repaired
	TruncatedBytes  int64  `json:"truncated_bytes"`
	LSN             uint64 `json:"lsn"` // the recovered commit sequence
}

// Recover replays the durability directory into the store: the newest
// usable snapshot plus the log tail past it, with a torn tail truncated
// (see wal.RecoverFS). Open calls it before attaching the log and the
// commit taps, so nothing replayed is re-logged; calling it again
// afterwards just returns the boot-time summary. Records route by key,
// so a directory reopens at any shard count. The log is read in one
// pass; the shards then replay their shares side by side (eachShard),
// since each touches only its own table and STM instance. Of several
// failing shards, the lowest-numbered one's error is returned.
func (s *Store) Recover() (RecoverInfo, error) {
	if s.dur == nil {
		return RecoverInfo{}, ErrNotDurable
	}
	if s.dur.recovered {
		return s.dur.info, nil
	}
	if _, err := os.Stat(filepath.Join(s.dur.dir, "store.meta")); err == nil {
		return RecoverInfo{}, fmt.Errorf("kv: %s holds the per-shard logs of an earlier version, which this one does not read", s.dur.dir)
	}
	// The ops by shard, in log order: each shard then replays on its
	// own, into a map sized for it and a table that stay in cache, and
	// the shards replay side by side (eachShard). An op is routed by
	// reference with its key's hash: each record's ops are this call's,
	// handed over once, and the hash is the one replay links by.
	ops := make([][]routedOp, len(s.shards))
	n := 0
	res, err := wal.RecoverFS(s.dur.fs, s.dur.dir, func(rec wal.Record) error {
		for j := range rec.Ops {
			h := fnv1a(rec.Ops[j].Key)
			ops[h&s.mask] = append(ops[h&s.mask], routedOp{&rec.Ops[j], h})
		}
		n += len(rec.Ops)
		return nil
	}, &s.dur.m)
	if err != nil {
		return RecoverInfo{}, fmt.Errorf("kv: recover: %w", err)
	}
	errs := make([]error, len(s.shards))
	s.eachShard(n, func(i int) {
		errs[i] = s.shards[i].replay(ops[i])
		ops[i] = nil
	})
	// The lowest-numbered shard's error, whatever order the shards ran in.
	for _, err := range errs {
		if err != nil {
			return RecoverInfo{}, err
		}
	}
	s.feed.lsn = res.LastSeq
	s.dur.res = res
	info := RecoverInfo{Records: res.Records, SnapshotRecords: res.SnapshotRecords, TruncatedBytes: res.TruncatedBytes, LSN: res.LastSeq}
	if res.SnapshotSeq != 0 {
		info.Snapshots = 1
	}
	if res.Truncated {
		info.Truncations = 1
	}
	s.dur.recovered, s.dur.info = true, info
	return info, nil
}

// replay installs in sh the state ops — sh's share of the snapshot and
// the log tail, in order — leave behind: the ops fold into each key's
// last write, and each survivor is linked and given its value in one
// hold of sh.mu, with one Touch of kvers after it. Recovery runs before
// the store serves and each shard replays on one goroutine, so sh has
// one writer and no reader: a plain store into an entry just linked is
// the whole write. The survivors' entries are one array (see
// shard.bulk), so a recovered store is laid out as a bulk-loaded one.
func (sh *shard) replay(ops []routedOp) error {
	final := make(map[string]routedOp, len(ops)) // key → its last write, made absolute in place
	for _, r := range ops {
		switch op := r.op; op.Kind {
		case wal.KindSet, wal.KindCounterSet:
			final[op.Key] = r
		case wal.KindCounterAdd:
			if prev, ok := final[op.Key]; ok && prev.op.Kind == wal.KindCounterSet {
				op.N += prev.op.N
			}
			op.Kind = wal.KindCounterSet
			final[op.Key] = r
		case wal.KindDelete:
			delete(final, op.Key)
		default:
			return fmt.Errorf("kv: replay: unknown op kind %d", op.Kind)
		}
	}
	if len(final) == 0 {
		return nil
	}
	sh.mu.Lock()
	left := len(final)
	for k, r := range final {
		e, _ := sh.put(k, r.hash, r.op.Kind == wal.KindCounterSet, true, left)
		if r.op.Kind == wal.KindSet {
			e.b.Store(r.op.Val)
		} else {
			e.c.Store(r.op.N)
		}
		left--
	}
	sh.bulk = nil
	sh.mu.Unlock()
	sh.stm.Touch(sh.kvers)
	return nil
}

// routedOp is a recovered op routed to its key's shard, with the key's
// hash.
type routedOp struct {
	op   *wal.Op
	hash uint64
}

// attachLogs opens the log (continuing the repaired tail) and installs
// the commit taps. Open-time only.
func (s *Store) attachLogs() error {
	// A tail already past the segment size rotates as soon as the log
	// opens, and the hook's checkpoint reads feed.log: hold it at
	// checkpointAsync's door until the attach is complete.
	s.dur.ckptMu.Lock()
	defer s.dur.ckptMu.Unlock()
	o := s.dur.opts
	o.Metrics = &s.dur.m
	o.OnRotate = func(uint64) { s.checkpointAsync() }
	log, err := wal.OpenLog(s.dur.dir, s.dur.res, o)
	if err != nil {
		s.dur.closed.Store(true) // a held checkpoint finds the store shut
		return err
	}
	s.feed.mu.Lock()
	s.feed.log = log
	s.feed.mu.Unlock()
	s.dur.attached = true
	s.tapOnce.Do(s.installTaps)
	return nil
}

// installTaps installs the commit tap on every shard (idempotent via
// tapOnce at the call sites). The tap runs at the committing
// transaction's serialization point with its commit locks held: it
// only takes the LSN, buffers the record (Log.Append does no I/O) and
// fans out to subscribers — the disk never gates a commit.
func (s *Store) installTaps() {
	f := &s.feed
	tap := func(data any) {
		p := data.(*pendingOps)
		cross := s.crossShard(p.ops)
		f.mu.Lock()
		f.lsn++
		p.seq = f.lsn
		if cross {
			f.cross++
		}
		if f.log != nil {
			// Errors are sticky inside the Log and surface on
			// WaitDurable/Sync; the commit itself must not fail here — it
			// is already past its serialization point. A commit the failed
			// log refused passed the degraded gate before the flip; it is
			// counted: in memory, not durable, loudly.
			if err := f.log.Append(p.seq, p.ops); err != nil {
				s.dur.shed.Add(1)
			}
		}
		if subs := s.subs.Load(); subs != nil && len(p.ops) > 0 {
			notifySubscribers(s, *subs, p)
		}
		f.mu.Unlock()
	}
	for _, sh := range s.shards {
		sh.stm.SetCommitTap(tap)
	}
	s.tapOn.Store(true)
}

// crossShard reports whether ops write more than one shard.
func (s *Store) crossShard(ops []wal.Op) bool {
	for i := 1; i < len(ops); i++ {
		if s.ShardOf(ops[i].Key) != s.ShardOf(ops[0].Key) {
			return true
		}
	}
	return false
}

// fsyncLevel reports whether acknowledged writes wait for fsync.
func (s *Store) fsyncLevel() bool { return s.dur != nil && s.dur.level == wal.Fsync }

// waitDurable blocks until p's record is fsynced, at the Fsync level.
// Called after the transaction has fully committed and released its
// locks; p.seq is 0 when the attempt logged nothing.
func (s *Store) waitDurable(p *pendingOps) error {
	if p.seq == 0 || !s.fsyncLevel() {
		return nil
	}
	if err := s.feed.log.WaitDurable(p.seq); err != nil {
		return degradeWriteErr(err)
	}
	return nil
}

// checkpointBatch bounds the keys one checkpoint transaction reads:
// short enough to commit beside writers, long enough to amortise it.
const checkpointBatch = 256

// Checkpoint snapshots the store and compacts the log. It reads while
// writers commit: it takes the LSN L under the feed lock before it reads
// anything, reads every live key in short snapshots (stm.Snap.Run), one
// per bounded batch, takes the LSN E reached when it is done, fsyncs the
// log through E, and installs one snapshot recording L and E and
// carrying the records L+1..E (wal.WriteSnapshotFS) — each key was read
// as of some commit between L and E, and replaying those records over what
// was read gives the exact state at E. A write at or below L has tapped,
// so it still holds its locks or has published: the read of its key
// sees it or a later write. The reads are validated snapshots, not plain
// loads, because the eager and global-lock engines write speculative
// values in place under a locked word; a snapshot reads only committed
// ones.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return ErrNotDurable
	}
	s.dur.ckptRun.Lock()
	defer s.dur.ckptRun.Unlock()
	return s.checkpoint()
}

// checkpointAsync is the rotation hook: best-effort, skipped while a
// checkpoint runs, failures counted rather than returned.
func (s *Store) checkpointAsync() {
	d := s.dur
	d.ckptMu.Lock()
	if d.closed.Load() {
		d.ckptMu.Unlock()
		return
	}
	d.ckptWG.Add(1)
	d.ckptMu.Unlock()
	defer d.ckptWG.Done()
	if !d.ckptRun.TryLock() {
		return
	}
	defer d.ckptRun.Unlock()
	if err := s.checkpoint(); err != nil {
		d.ckptFails.Add(1)
	}
}

func (s *Store) checkpoint() error {
	from := s.feed.position()
	var ops []wal.Op
	for _, sh := range s.shards {
		var err error
		if ops, err = sh.appendLive(ops); err != nil {
			return fmt.Errorf("kv: checkpoint: %w", err)
		}
	}
	through := s.feed.position()
	if err := s.feed.log.Sync(); err != nil {
		return fmt.Errorf("kv: checkpoint: %w", err)
	}
	if err := wal.WriteSnapshotFS(s.dur.fs, s.dur.dir, from, through, ops); err != nil {
		return fmt.Errorf("kv: checkpoint: %w", err)
	}
	s.dur.ckpts.Add(1)
	// Keep the previous snapshot as a fallback against bit rot in the
	// new one; prune segments both already cover.
	if err := wal.CompactFS(s.dur.fs, s.dur.dir, 2); err != nil {
		return fmt.Errorf("kv: compact: %w", err)
	}
	return nil
}

// appendLive appends sh's live keys to ops in absolute form, reading
// checkpointBatch entries per snapshot (see stm.Snap.Run).
func (sh *shard) appendLive(ops []wal.Op) ([]wal.Op, error) {
	batch := make([]*entry, 0, checkpointBatch)
	var sn stm.Snap
	stms := []*stm.STM{sh.stm}
	flush := func() error {
		base := len(ops)
		err := sn.Run(context.Background(), stms, func(bounds []uint64) error {
			ops = ops[:base] // only the reads of the attempt that stands count
			for _, e := range batch {
				switch b, n, st, ok := e.snap(&sn, bounds[0]); {
				case !ok:
					sn.GiveUp()
				case st != live:
				case e.isCounter():
					ops = append(ops, wal.Op{Kind: wal.KindCounterSet, Key: e.key, N: n})
				default:
					ops = append(ops, wal.Op{Kind: wal.KindSet, Key: e.key, Val: b})
				}
			}
			return nil
		})
		batch = batch[:0]
		return err
	}
	for e := range sh.each {
		if batch = append(batch, e); len(batch) == checkpointBatch {
			if err := flush(); err != nil {
				return ops, err
			}
		}
	}
	if len(batch) == 0 {
		return ops, nil
	}
	return ops, flush()
}

// Close flushes and closes the log (a Fsync/Batch-level close fsyncs
// the tail). The store itself remains usable for non-durable operation
// but further writes are no longer logged; Close is for orderly
// shutdown. Safe to call more than once.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	if !s.dur.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Drain in-flight rotation checkpoints before closing the log, so no
	// background goroutine touches the directory after Close returns.
	s.dur.ckptMu.Lock()
	s.dur.ckptMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	s.dur.ckptWG.Wait()
	if s.feed.log == nil {
		return nil
	}
	return s.feed.log.Close()
}

// Durable reports whether the store was opened with WithDurability.
func (s *Store) Durable() bool { return s.dur != nil }

// WALStats is the durability and changefeed observability snapshot.
// The JSON names are a stable wire format (STATS WAL, /debug/vars).
type WALStats struct {
	Level             string       `json:"level"` // "off" without durability
	Appends           uint64       `json:"appends"`
	Batches           uint64       `json:"batches"`
	Fsyncs            uint64       `json:"fsyncs"`
	Bytes             uint64       `json:"bytes"`
	Rotations         uint64       `json:"rotations"`
	Truncations       uint64       `json:"truncations"`
	TruncatedBytes    uint64       `json:"truncated_bytes"`
	Checkpoints       uint64       `json:"checkpoints"`
	CheckpointFails   uint64       `json:"checkpoint_fails"`
	TxnMarkers        uint64       `json:"txn_markers"` // records that wrote >1 shard; a shim under the old name, goes with ROADMAP item 8
	AppendNs          obs.Snapshot `json:"append_ns"`
	FsyncNs           obs.Snapshot `json:"fsync_ns"`
	Subscribers       int          `json:"subscribers"`
	ChangefeedDropped uint64       `json:"changefeed_dropped"`
	Recover           RecoverInfo  `json:"recover"`
	Err               string       `json:"err,omitempty"` // first sticky log error

	// Degraded-mode state (degrade.go).
	Degraded   bool   `json:"degraded"`
	ShedWrites uint64 `json:"shed_writes"` // commits the failed log refused
}

// WALStats snapshots the durability metrics; with durability off only
// the changefeed fields are live.
func (s *Store) WALStats() WALStats {
	st := WALStats{Level: "off", ChangefeedDropped: s.feedDropped.Load()}
	if subs := s.subs.Load(); subs != nil {
		st.Subscribers = len(*subs)
	}
	if s.dur == nil {
		return st
	}
	m := s.dur.m.Snapshot()
	st.Level = s.dur.level.String()
	st.Appends, st.Batches, st.Fsyncs, st.Bytes = m.Appends, m.Batches, m.Fsyncs, m.Bytes
	st.Rotations, st.Truncations, st.TruncatedBytes = m.Rotations, m.Truncations, m.TruncatedBytes
	st.Checkpoints, st.CheckpointFails = s.dur.ckpts.Load(), s.dur.ckptFails.Load()
	s.feed.mu.Lock()
	st.TxnMarkers = s.feed.cross
	s.feed.mu.Unlock()
	st.AppendNs, st.FsyncNs = m.AppendNs, m.FsyncNs
	st.Recover = s.dur.info
	st.ShedWrites = s.dur.shed.Load()
	if deg, derr := s.Degraded(); deg {
		st.Degraded = true
		if derr != nil {
			st.Err = derr.Error()
		}
	}
	if st.Err == "" && s.feed.log != nil {
		if err := s.feed.log.Err(); err != nil {
			st.Err = err.Error()
		}
	}
	return st
}

// WithDurability opens the store over a write-ahead log in dir,
// recovering existing state on Open and logging every committed write
// thereafter at the given level. Stores with durability must be created
// with Open (New panics on error).
func WithDurability(dir string, level wal.Level) Option {
	return func(c *config) {
		c.durDir = dir
		c.durLevel = level
	}
}

// WithWALSegmentBytes sets the log segment rotation threshold
// (default 64 MiB; each rotation triggers a background checkpoint).
func WithWALSegmentBytes(n int64) Option {
	return func(c *config) { c.segmentBytes = n }
}

// WithWALFS threads a filesystem seam under the store's WAL — every
// segment, snapshot and recovery file operation goes through it. The
// fault-injection tests pass a fault.DiskFS; production code never
// needs this (nil means the real filesystem).
func WithWALFS(fsys wal.FS) Option {
	return func(c *config) { c.walFS = fsys }
}
