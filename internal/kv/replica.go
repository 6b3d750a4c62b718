package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"modtx/internal/wal"
)

// Replica: the follower side of WAL shipping. A Replica wraps an
// in-memory Store and applies the primary's log — one record per
// committed transaction, in LSN order. Records route by key, so the
// replica's shard count need not match the primary's. A replica has two
// phases, and each runs code the store already has:
//
//   - Syncing: every key belongs to the feeder. Each record's ops fold
//     into per-shard maps through recovery's fold, and the record that
//     reaches the target installs them through eachShard with recovery's
//     install, then publishes the position. A replica syncs when
//     SetTarget finds it empty and behind its primary, and from every
//     Reset.
//   - Live: each record applies as one local transaction, so the
//     replica's own engines (any of them) give its readers the same
//     isolation the primary's do. A replica never given a target is
//     live from the start.
//
// What a replica observer may see (the replication contract, litmus-
// tested in replica_test.go and documented in the README):
//
//   - A prefix of the primary's commit order, always: a live replica
//     applies records in LSN order, one record one local transaction,
//     so a consistent reader sees the state after some LSN.
//   - Cross-shard transactions surface atomically: a transaction is one
//     record and a record applies inside one local transaction, so a
//     consistent reader (Get, View, MGet) never observes half of one.
//   - Nothing while syncing: a syncing store is private to the feeder
//     and must not be read in process (Syncing reports it; the server
//     answers its reads with an error). The shards install one after
//     another, and a Reset empties them first. While syncing, Position
//     counts the records received, not the records visible; a position
//     at or past the target means the store holds those records.
//   - FGET keeps its plain-read caveat: exactly as on the primary
//     (the paper's §3.5 delayed-writeback anomaly), a plain read
//     against the lazy engine may briefly miss a committed-but-
//     unwritten value. Replication restates the paper's mixed-mode
//     bound in space; it does not tighten the plain-read path.
//
// Feeding the replica is single-writer: SetTarget, ApplyRecords and
// Reset serialize on an internal mutex (the wire client is one
// goroutine), while the store's readers run concurrently, lock-free as
// ever.

// ErrReplicaGap reports a record that does not extend the replica's
// prefix: the stream skipped sequences (e.g. the primary compacted past
// this replica's position). The feeder must re-catch-up — from
// segments or a snapshot — before applying more.
var ErrReplicaGap = errors.New("kv: record does not extend the replica's prefix (gap)")

// Replica applies a primary's replication stream to a local store.
type Replica struct {
	s *Store

	mu    sync.Mutex              // serializes the feeders
	keys  []string                // applyTxn's footprint scratch, guarded by mu
	final []map[string]wal.Folded // while syncing, each shard's folded ops; guarded by mu

	pos      atomic.Uint64 // applied primary LSN
	applied  atomic.Uint64 // records applied
	xapplied atomic.Uint64 // of which wrote more than one shard
	syncing  atomic.Bool   // final is in use: the store is the feeder's alone

	// target is the primary's LSN at handshake time; Ready reports the
	// replica caught up to it at least once.
	target    atomic.Uint64
	hasTarget atomic.Bool
}

// NewReplica creates a replica over a fresh in-memory store. opts are
// the store options (shards, engine, metrics...); durability options
// are rejected — a replica's durability is the primary's log,
// re-streamed on restart.
func NewReplica(opts ...Option) (*Replica, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.durDir != "" {
		return nil, errors.New("kv: a replica store cannot have durability; it replays the primary's log")
	}
	return &Replica{s: newStore(&c)}, nil
}

// Store is the replica's read surface: FastGet / View / Get /
// Subscribe serve from it once it is not Syncing. Writing through it
// corrupts replication (the server layer enforces read-only);
// changefeed events carry the replica's own LSNs, not the primary's,
// and a sync's install emits none.
func (r *Replica) Store() *Store { return r.s }

// Shards returns the replica's shard count.
func (r *Replica) Shards() int { return len(r.s.shards) }

// Position returns the applied primary LSN: the replica's state is the
// primary's after that commit (while syncing, the records received).
func (r *Replica) Position() uint64 { return r.pos.Load() }

// Watermark returns the applied primary LSN, whatever i is. Shim for
// the benchmark, which still asks per shard; goes with ROADMAP item 8.
func (r *Replica) Watermark(i int) uint64 { return r.Position() }

// Syncing reports whether the store is the feeder's alone: its records
// are folding and not yet installed, so it must not be read.
func (r *Replica) Syncing() bool { return r.syncing.Load() }

// SetTarget records the primary's LSN at handshake time; Ready flips
// true once the replica's position reaches it. An empty replica behind
// its target starts syncing; a syncing one the target has come down to
// installs at once.
func (r *Replica) SetTarget(lsn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch pos := r.pos.Load(); {
	case r.syncing.Load() && pos >= lsn:
		r.installLocked()
	case pos == 0 && lsn > 0 && !r.syncing.Load():
		r.syncLocked()
	}
	r.target.Store(lsn)
	r.hasTarget.Store(true)
}

// Ready reports whether the replica has caught up to the handshake-
// time primary position and is not syncing.
func (r *Replica) Ready() bool {
	return !r.syncing.Load() && r.hasTarget.Load() && r.pos.Load() >= r.target.Load()
}

// ApplyRecords feeds stream records, in LSN order: duplicates at or
// below the position are ignored (reconnect overlap), a sequence past
// the next one returns ErrReplicaGap. A live replica applies each
// record as one local transaction; a syncing one folds it.
func (r *Replica) ApplyRecords(recs []wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		if pos := r.pos.Load(); rec.Seq <= pos {
			continue
		} else if rec.Seq != pos+1 {
			return fmt.Errorf("%w: seq %d, want %d", ErrReplicaGap, rec.Seq, pos+1)
		}
		var err error
		if r.syncing.Load() {
			err = r.foldLocked(rec.Ops)
		} else {
			err = r.applyTxn(rec.Ops)
		}
		if err != nil {
			return err
		}
		if r.s.crossShard(rec.Ops) {
			r.xapplied.Add(1)
		}
		r.applied.Add(1)
		r.advanceLocked(rec.Seq)
	}
	return nil
}

// applyTxn replays one record's ops as ONE local transaction — the
// idempotent replay: sets and counter-sets are absolute, deletes of
// absent keys are no-ops. Caller holds r.mu.
func (r *Replica) applyTxn(ops []wal.Op) error {
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		r.keys = append(r.keys, ops[i].Key)
	}
	err := r.s.Update(r.keys, func(t *Txn) error {
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case wal.KindSet:
				t.Set(op.Key, op.Val)
			case wal.KindCounterSet:
				t.CounterSet(op.Key, op.N)
			case wal.KindCounterAdd:
				t.Add(op.Key, op.N)
			case wal.KindDelete:
				t.Delete(op.Key)
			default:
				return fmt.Errorf("kv: replica: unknown op kind %d", op.Kind)
			}
		}
		return nil
	})
	clear(r.keys)
	r.keys = r.keys[:0]
	return err
}

// syncLocked starts a sync with nothing folded. Caller holds r.mu.
func (r *Replica) syncLocked() {
	r.final = make([]map[string]wal.Folded, len(r.s.shards))
	for i := range r.final {
		r.final[i] = make(map[string]wal.Folded)
	}
	r.syncing.Store(true)
}

// foldLocked folds ops into the shards' maps. Each op is copied, its
// value too: the feeder reuses its records' memory. Caller holds r.mu.
func (r *Replica) foldLocked(ops []wal.Op) error {
	for i := range ops {
		op := ops[i]
		op.Val = copyVal(op.Val)
		h := fnv1a(op.Key)
		if err := wal.Fold(r.final[h&r.s.mask], wal.Folded{Op: &op, Hash: h}); err != nil {
			return err
		}
	}
	return nil
}

// advanceLocked publishes seq as the position. The record that brings
// a syncing replica to its target installs every shard first, so a
// position at or past the target means the store holds its records.
// Caller holds r.mu.
func (r *Replica) advanceLocked(seq uint64) {
	if r.syncing.Load() && seq >= r.target.Load() {
		r.installLocked()
	}
	r.pos.Store(seq)
}

// installLocked installs the folded shards, side by side, and ends the
// sync. Caller holds r.mu.
func (r *Replica) installLocked() {
	n := 0
	for _, m := range r.final {
		n += len(m)
	}
	r.s.eachShard(n, func(i int) { r.s.shards[i].install(r.final[i]) })
	r.final = nil
	r.syncing.Store(false)
}

// Reset replaces the replica's state with a primary snapshot exact at
// seq (wal.LatestSnapshot): the catch-up fallback when the replica's
// position predates the primary's oldest retained segment. It starts a
// sync: every shard gets an empty table, kvers touched first (as
// unlink does), what was folded before is dropped, and the snapshot's
// records fold. The replica installs here if seq reaches its target,
// and otherwise at the record that does. A WaitGet or Watch parked on a
// key's word across the Reset is not woken by it: it finds the new
// table at its safety-net recheck or its deadline.
func (r *Replica) Reset(seq uint64, recs []wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncLocked()
	for _, sh := range r.s.shards {
		sh.mu.Lock()
		sh.stm.Touch(sh.kvers)
		sh.tbl.Store(newTable(0))
		sh.keys.Store(0)
		sh.mu.Unlock()
	}
	for _, rec := range recs {
		if err := r.foldLocked(rec.Ops); err != nil {
			return fmt.Errorf("kv: replica: reset: %w", err)
		}
	}
	r.advanceLocked(seq)
	return nil
}

// ReplicaStats is the replica's observability snapshot. The JSON
// names are a stable wire format (STATS REPL emits it).
type ReplicaStats struct {
	Shards    int    `json:"shards"`
	Watermark uint64 `json:"watermark"` // applied primary LSN
	Applied   uint64 `json:"applied"`   // records applied
	// XApplied counts the applied records that wrote more than one
	// shard, and Pending is 0: nothing is held back any more. Both are
	// shims for the benchmark; they go with ROADMAP item 8.
	XApplied uint64 `json:"xapplied"`
	Pending  int    `json:"pending"`
	Ready    bool   `json:"ready"`
	Syncing  bool   `json:"syncing"`
}

// Stats snapshots the replica's progress.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Shards:    len(r.s.shards),
		Watermark: r.pos.Load(),
		Applied:   r.applied.Load(),
		XApplied:  r.xapplied.Load(),
		Ready:     r.Ready(),
		Syncing:   r.Syncing(),
	}
}
