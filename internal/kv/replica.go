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
// committed transaction, in LSN order — through real transactions on
// the local store, so the replica's own engines (any of them) provide
// the same isolation to its readers that the primary's do. Records
// route by key, so the replica's shard count need not match the
// primary's.
//
// What a replica observer may see (the replication contract, litmus-
// tested in replica_test.go and documented in the README):
//
//   - A prefix of the primary's commit order, always: records apply in
//     LSN order, consecutive ones merged into one local transaction, so
//     a consistent reader sees the state after some LSN.
//   - Cross-shard transactions surface atomically: a transaction is one
//     record and a record applies inside one local transaction, so a
//     consistent reader (Get, View, MGet) never observes half of one.
//   - FGET keeps its plain-read caveat: exactly as on the primary
//     (the paper's §3.5 delayed-writeback anomaly), a plain read
//     against the lazy engine may briefly miss a committed-but-
//     unwritten value. Replication restates the paper's mixed-mode
//     bound in space; it does not tighten the plain-read path.
//
// Feeding the replica is single-writer: ApplyRecords and Reset
// serialize on an internal mutex (the wire client is one goroutine),
// while the store's readers run concurrently, lock-free as ever.

// ErrReplicaGap reports a record that does not extend the replica's
// prefix: the stream skipped sequences (e.g. the primary compacted past
// this replica's position). The feeder must re-catch-up — from
// segments or a snapshot — before applying more.
var ErrReplicaGap = errors.New("kv: record does not extend the replica's prefix (gap)")

// Replica applies a primary's replication stream to a local store.
type Replica struct {
	s *Store

	mu  sync.Mutex // serializes the feeders
	ops []wal.Op   // run scratch, guarded by mu

	pos      atomic.Uint64 // applied primary LSN
	applied  atomic.Uint64 // records applied
	xapplied atomic.Uint64 // of which wrote more than one shard
	syncing  atomic.Bool   // a snapshot reset is in progress

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
// Subscribe serve from it. Writing through it corrupts replication
// (the server layer enforces read-only); changefeed events carry the
// replica's own LSNs, not the primary's.
func (r *Replica) Store() *Store { return r.s }

// Shards returns the replica's shard count.
func (r *Replica) Shards() int { return len(r.s.shards) }

// Position returns the applied primary LSN: the replica's state is the
// primary's after that commit.
func (r *Replica) Position() uint64 { return r.pos.Load() }

// Watermark returns the applied primary LSN, whatever i is. Shim for
// the benchmark, which still asks per shard; goes with ROADMAP item 8.
func (r *Replica) Watermark(i int) uint64 { return r.Position() }

// SetTarget records the primary's LSN at handshake time; Ready flips
// true once the replica's position reaches it.
func (r *Replica) SetTarget(lsn uint64) {
	r.target.Store(lsn)
	r.hasTarget.Store(true)
}

// Ready reports whether the replica has caught up to the handshake-
// time primary position and is not mid-reset.
func (r *Replica) Ready() bool {
	return !r.syncing.Load() && r.hasTarget.Load() && r.pos.Load() >= r.target.Load()
}

// ApplyRecords feeds a batch of stream records, in LSN order:
// duplicates at or below the position are ignored (reconnect overlap),
// a sequence past the next one returns ErrReplicaGap. The wire client
// hands over every frame it has already buffered, so catch-up applies
// long runs of records per local transaction instead of one at a time.
func (r *Replica) ApplyRecords(recs []wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(recs) > 0 {
		if pos := r.pos.Load(); recs[0].Seq <= pos {
			recs = recs[1:]
			continue
		} else if recs[0].Seq != pos+1 {
			return fmt.Errorf("%w: seq %d, want %d", ErrReplicaGap, recs[0].Seq, pos+1)
		}
		n := r.runLocked(recs)
		err := r.applyTxn(r.ops)
		clear(r.ops)
		if err != nil {
			return err
		}
		for _, rec := range recs[:n] {
			if r.s.crossShard(rec.Ops) {
				r.xapplied.Add(1)
			}
		}
		r.applied.Add(uint64(n))
		r.pos.Store(recs[n-1].Seq)
		recs = recs[n:]
	}
	return nil
}

// maxRunOps caps how many ops one apply transaction merges — large
// enough to amortize the transaction during catch-up, small enough to
// bound its footprint (and lock hold) on a live replica.
const maxRunOps = 256

// runLocked collects into r.ops the longest run of records at the head
// of recs that may merge into one transaction and returns its length.
// The run is dense in LSN; a record containing a delete ends it after
// itself, because a later record may re-create the key with the other
// kind, which needs the delete's collection between the two writes
// (within one transaction a key's kind stays fixed). Caller holds r.mu.
func (r *Replica) runLocked(recs []wal.Record) (n int) {
	r.ops = r.ops[:0]
	for n < len(recs) && len(r.ops) < maxRunOps {
		if n > 0 && recs[n].Seq != recs[n-1].Seq+1 {
			break
		}
		r.ops = append(r.ops, recs[n].Ops...)
		n++
		if hasDelete(recs[n-1].Ops) {
			break
		}
	}
	return n
}

func hasDelete(ops []wal.Op) bool {
	for i := range ops {
		if ops[i].Kind == wal.KindDelete {
			return true
		}
	}
	return false
}

// applyTxn replays one or more records' ops as ONE local transaction —
// the idempotent replay: sets and counter-sets are absolute, deletes of
// absent keys are no-ops.
func (r *Replica) applyTxn(ops []wal.Op) error {
	if len(ops) == 0 {
		return nil
	}
	keys := make([]string, len(ops))
	for i := range ops {
		keys[i] = ops[i].Key
	}
	return r.s.Update(keys, func(t *Txn) error {
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
}

// Reset replaces the replica's state with a primary snapshot exact at
// seq (wal.LatestSnapshot): the catch-up fallback when the replica's
// position predates the primary's oldest retained segment. Every key is
// deleted, in batched transactions, and the snapshot's records applied,
// each as one transaction — readers may observe the intermediate
// states, which is why Ready reports false (syncing) for the duration;
// a replica serving live traffic should be drained first.
func (r *Replica) Reset(seq uint64, recs []wal.Record) error {
	r.syncing.Store(true)
	defer r.syncing.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()

	// Wipe: gather the current keys (the table only mutates under r.mu
	// — applies and their collection run right here), then delete
	// transactionally in batches.
	var keys []string
	for _, sh := range r.s.shards {
		for e := range sh.each {
			keys = append(keys, e.key)
		}
	}
	const batch = 256
	for len(keys) > 0 {
		part := keys[:min(batch, len(keys))]
		keys = keys[len(part):]
		if err := r.s.Update(part, func(t *Txn) error {
			for _, k := range part {
				t.Delete(k)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("kv: replica: reset: %w", err)
		}
	}
	for _, rec := range recs {
		if err := r.applyTxn(rec.Ops); err != nil {
			return fmt.Errorf("kv: replica: reset: %w", err)
		}
	}
	r.pos.Store(seq)
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
		Syncing:   r.syncing.Load(),
	}
}
