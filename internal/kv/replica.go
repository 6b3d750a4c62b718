package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"modtx/internal/wal"
)

// Replica: the follower side of WAL shipping. A Replica wraps an
// in-memory Store and applies the primary's per-shard WAL records —
// plus the cross-shard marker stream — through real transactions on
// the local store, so the replica's own engines (any of the four)
// provide the same isolation to its readers that the primary's do.
//
// What a replica observer may see (the replication contract, litmus-
// tested in replica_test.go and documented in the README):
//
//   - Per-shard prefix, always: shard records apply in the primary's
//     per-shard commit order, each as one local transaction, so any
//     reader sees a dense prefix of each shard's history.
//   - Cross-shard transactions surface atomically: a record flagged
//     as a cross-shard participant is held at the head of its shard's
//     apply queue until its commit marker and every sibling record
//     have arrived, then all participants apply as ONE local
//     cross-shard transaction. A transactional reader (Get, View,
//     MGet) therefore never observes half of a cross-shard
//     transaction — the watermark boundary is the apply transaction's
//     serialization point.
//   - FGET keeps its plain-read caveat: exactly as on the primary
//     (the paper's §3.5 delayed-writeback anomaly), a plain read
//     against the lazy engine may briefly miss a committed-but-
//     unwritten value. Replication restates the paper's mixed-mode
//     bound in space; it does not tighten the plain-read path.
//
// Feeding the replica is single-writer: ApplyRecord and ResetShard
// serialize on an internal mutex (the wire client is one goroutine),
// while the store's readers run concurrently, lock-free as ever.

// ErrReplicaGap reports a record that does not extend the replica's
// dense per-shard prefix: the stream skipped sequences (e.g. the
// primary compacted past this replica's cursor). The feeder must
// re-catch-up — from segments or a snapshot — before applying more.
var ErrReplicaGap = errors.New("kv: record does not extend the replica's prefix (gap)")

// Replica applies a primary's replication stream to a local store.
type Replica struct {
	s *Store

	mu      sync.Mutex
	queues  [][]wal.Record              // per-shard dense apply queues (head may stall)
	markers map[wal.TxnPart]markerEntry // participant -> its txn's marker
	xseq    uint64                      // newest marker-log seq seen

	water    []atomic.Uint64 // per-shard applied watermark (primary seqs)
	applied  atomic.Uint64   // records applied
	xapplied atomic.Uint64   // cross-shard transactions applied
	syncing  atomic.Bool     // a snapshot reset is in progress

	// target is the primary's per-shard position at handshake time;
	// Ready reports the replica caught up to it at least once.
	tmu    sync.Mutex
	target []uint64
}

// NewReplica creates a replica over a fresh in-memory store. opts are
// the store options (shards, engine, metrics...); the shard count MUST
// match the primary's, since records route by the shared key hash, and
// durability options are rejected — a replica's durability is the
// primary's log, re-streamed on restart.
func NewReplica(opts ...Option) (*Replica, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.durDir != "" {
		return nil, errors.New("kv: a replica store cannot have durability; it replays the primary's log")
	}
	s := newStore(&c)
	r := &Replica{
		s:       s,
		queues:  make([][]wal.Record, len(s.shards)),
		markers: make(map[wal.TxnPart]markerEntry),
		water:   make([]atomic.Uint64, len(s.shards)),
	}
	return r, nil
}

// Store is the replica's read surface: FastGet / View / Get /
// Subscribe serve from it. Writing through it corrupts replication
// (the server layer enforces read-only); changefeed events carry the
// replica's own per-shard commit sequences, not the primary's.
func (r *Replica) Store() *Store { return r.s }

// Shards returns the replica's shard count (must equal the primary's).
func (r *Replica) Shards() int { return len(r.s.shards) }

// Watermark returns shard i's applied watermark: the primary commit
// sequence the replica's state includes, per the contract above.
func (r *Replica) Watermark(i int) uint64 { return r.water[i].Load() }

// SetTarget records the primary's per-shard positions at handshake
// time; Ready flips true once every shard's watermark reaches it.
func (r *Replica) SetTarget(seqs []uint64) {
	r.tmu.Lock()
	r.target = append([]uint64(nil), seqs...)
	r.tmu.Unlock()
}

// Ready reports whether the replica has caught up to the handshake-
// time primary positions on every shard and is not mid-reset.
func (r *Replica) Ready() bool {
	if r.syncing.Load() {
		return false
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	if r.target == nil {
		return false
	}
	for i, want := range r.target {
		if i < len(r.water) && r.water[i].Load() < want {
			return false
		}
	}
	return true
}

// ApplyRecord feeds one record from the primary's stream: a shard
// record (rec.Shard < Shards) or a cross-shard commit marker
// (rec.Shard == wal.TxnShard). Records must arrive in per-stream
// order; duplicates below the watermark are ignored (reconnect
// overlap), a sequence above the expected next returns ErrReplicaGap.
func (r *Replica) ApplyRecord(rec wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ingestLocked(rec); err != nil {
		return err
	}
	if rec.Shard == wal.TxnShard {
		return r.drainLocked(allShards(len(r.queues)))
	}
	return r.drainLocked([]int{int(rec.Shard)})
}

// ApplyRecords feeds a batch of stream records — same ordering rules
// as ApplyRecord — and drains once at the end. The wire client hands
// over every frame it has already buffered, so catch-up applies long
// runs of records per local transaction instead of one at a time. On
// error the already-ingested records stay queued; they drain with the
// next successful apply, and reconnect overlap dedupes as usual.
func (r *Replica) ApplyRecords(recs []wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range recs {
		if err := r.ingestLocked(recs[i]); err != nil {
			return err
		}
	}
	return r.drainLocked(allShards(len(r.queues)))
}

// ingestLocked validates one record and queues it (shard record) or
// registers its markers (marker record) without draining. Caller
// holds r.mu.
func (r *Replica) ingestLocked(rec wal.Record) error {
	if rec.Shard == wal.TxnShard {
		if rec.Seq <= r.xseq {
			return nil // duplicate marker
		}
		if rec.Seq != r.xseq+1 {
			return fmt.Errorf("%w: marker seq %d, want %d", ErrReplicaGap, rec.Seq, r.xseq+1)
		}
		r.xseq = rec.Seq
		for _, op := range rec.Ops {
			if op.Kind != wal.KindTxnMarker {
				continue
			}
			parts, err := wal.DecodeTxnParts(op.Val)
			if err != nil {
				return fmt.Errorf("kv: replica: %w", err)
			}
			if r.partsSatisfied(parts) {
				continue // snapshot catch-up already covered the whole txn, or the marker is stale
			}
			for _, p := range parts {
				// Overwrite wins: the marker stream is ordered, so a later
				// marker claiming a reused (shard, seq) is the live one and
				// the entry it replaces was stale.
				r.markers[p] = markerEntry{txn: rec.Txn, parts: parts}
			}
		}
		// Prune entries the stream has moved past (all parts inside the
		// watermarks): applied transactions' leftovers and stale markers
		// whose sequence numbers were consumed by other records.
		for p, e := range r.markers {
			if r.partsSatisfied(e.parts) {
				delete(r.markers, p)
			}
		}
		return nil
	}
	i := int(rec.Shard)
	if i < 0 || i >= len(r.queues) {
		return fmt.Errorf("kv: replica: record for shard %d of %d", rec.Shard, len(r.queues))
	}
	w := r.water[i].Load()
	next := w + uint64(len(r.queues[i])) + 1
	if rec.Seq <= w || rec.Seq < next {
		return nil // duplicate (reconnect overlap)
	}
	if rec.Seq > next {
		return fmt.Errorf("%w: shard %d seq %d, want %d", ErrReplicaGap, i, rec.Seq, next)
	}
	r.queues[i] = append(r.queues[i], rec)
	return nil
}

func allShards(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// markerEntry is one registered commit marker: the transaction id that
// binds it to its participant records, and the participant vector. A
// record applies through a marker only when the ids match — a marker
// streamed from before a primary-side recovery rollback may name
// (shard, seq) pairs that later commits reused, and must not vouch
// for them.
type markerEntry struct {
	txn   uint64
	parts []wal.TxnPart
}

// partsSatisfied reports whether every participant is at or below its
// shard's watermark (already in the replica's state).
func (r *Replica) partsSatisfied(parts []wal.TxnPart) bool {
	for _, p := range parts {
		if int(p.Shard) >= len(r.water) || p.Seq > r.water[p.Shard].Load() {
			return false
		}
	}
	return true
}

// drainLocked applies every applicable queued record on the given
// shards, following cross-shard applies onto their sibling shards.
// Caller holds r.mu.
func (r *Replica) drainLocked(shards []int) error {
	work := append([]int(nil), shards...)
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		for len(r.queues[i]) > 0 {
			head := r.queues[i][0]
			if !head.Cross {
				// A run of plain records applies as one local transaction:
				// the watermark advances in coarser steps but still only at
				// transaction boundaries, so readers keep seeing a dense
				// per-shard prefix — and catch-up pays for one transaction a
				// run, not one a record.
				n, ops := r.runLocked(i)
				if err := r.applyTxn(ops); err != nil {
					return err
				}
				for ; n > 0; n-- {
					r.popLocked(i)
				}
				continue
			}
			self := wal.TxnPart{Shard: uint32(i), Seq: head.Seq}
			entry, ok := r.markers[self]
			if !ok || entry.txn != head.Txn {
				break // this record's marker not here yet: hold the queue
			}
			heads, ready := r.crossReady(entry)
			if !ready {
				break // a sibling record not here yet
			}
			var ops []wal.Op
			for _, h := range heads {
				ops = append(ops, r.queues[h][0].Ops...)
			}
			if err := r.applyTxn(ops); err != nil {
				return err
			}
			for _, h := range heads {
				r.popLocked(h)
			}
			for _, p := range entry.parts {
				delete(r.markers, p)
			}
			r.xapplied.Add(1)
			// Sibling shards may have queued records behind the part
			// that just applied.
			for _, h := range heads {
				if h != i {
					work = append(work, h)
				}
			}
		}
	}
	return nil
}

// maxRunOps caps how many ops one apply transaction merges — large
// enough to amortize the transaction during catch-up, small enough to
// bound its footprint (and lock hold) on a live replica.
const maxRunOps = 256

// runLocked collects the longest run of plain (non-cross) records at
// the head of shard i's queue that may merge into one transaction. A
// cross-shard participant ends the run before itself (it applies with
// its siblings); a record containing a delete ends the run after
// itself, because a later record may re-create the key with the other
// kind, which needs the delete's collection between the two writes
// (within one transaction a key's kind stays fixed). Caller holds r.mu.
func (r *Replica) runLocked(i int) (n int, ops []wal.Op) {
	q := r.queues[i]
	for n < len(q) && len(ops) < maxRunOps {
		rec := q[n]
		if rec.Cross {
			break
		}
		ops = append(ops, rec.Ops...)
		n++
		if hasDelete(rec.Ops) {
			break
		}
	}
	return n, ops
}

func hasDelete(ops []wal.Op) bool {
	for i := range ops {
		if ops[i].Kind == wal.KindDelete {
			return true
		}
	}
	return false
}

// crossReady reports whether a cross-shard transaction can apply:
// every participant is either already inside the watermark (snapshot-
// covered) or sits at the head of its shard's queue with the marker's
// transaction id. heads lists the shards whose queued head records
// participate.
func (r *Replica) crossReady(e markerEntry) (heads []int, ready bool) {
	for _, p := range e.parts {
		if int(p.Shard) >= len(r.queues) {
			return nil, false
		}
		j := int(p.Shard)
		if p.Seq <= r.water[j].Load() {
			continue // already applied via snapshot catch-up
		}
		q := r.queues[j]
		if len(q) == 0 || q[0].Seq != p.Seq || !q[0].Cross || q[0].Txn != e.txn {
			return nil, false
		}
		heads = append(heads, j)
	}
	return heads, true
}

// popLocked removes shard i's head record and advances its watermark:
// the record's writes are committed locally, so readers at and after
// this point include it.
func (r *Replica) popLocked(i int) {
	head := r.queues[i][0]
	r.queues[i] = r.queues[i][1:]
	if len(r.queues[i]) == 0 {
		r.queues[i] = nil // release the backing array between bursts
	}
	r.water[i].Store(head.Seq)
	r.applied.Add(1)
}

// applyTxn replays one transaction's ops (possibly merged from
// several cross-shard participant records) as ONE local transaction —
// the idempotent replay: sets and counter-sets are absolute, deletes
// of absent keys are no-ops. Empty op lists (the primary's checkpoint
// marker transactions) commit nothing.
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

// ResetShard replaces shard i's state with a primary snapshot at seq:
// the catch-up fallback when the replica's cursor predates the
// primary's oldest retained segment. Existing keys of the shard are
// deleted and the snapshot's records applied, in batched transactions
// — readers may observe the intermediate states, which is why Ready
// reports false (syncing) for the duration; a replica serving live
// traffic should be drained first. The shard's queue and watermark
// reset to the snapshot position.
func (r *Replica) ResetShard(i int, seq uint64, recs []wal.Record) error {
	if i < 0 || i >= len(r.queues) {
		return fmt.Errorf("kv: replica: reset of shard %d of %d", i, len(r.queues))
	}
	r.syncing.Store(true)
	defer r.syncing.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()

	// Wipe: gather the shard's current keys (the table only mutates
	// under r.mu — applies and their collection run right here), then
	// delete transactionally in batches.
	sh := r.s.shards[i]
	var keys []string
	for e := range sh.each {
		keys = append(keys, e.key)
	}
	const batch = 256
	for len(keys) > 0 {
		n := min(batch, len(keys))
		part := keys[:n]
		keys = keys[n:]
		if err := r.s.Update(part, func(t *Txn) error {
			for _, k := range part {
				t.Delete(k)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("kv: replica: reset shard %d: %w", i, err)
		}
	}
	for _, rec := range recs {
		if err := r.applyTxn(rec.Ops); err != nil {
			return fmt.Errorf("kv: replica: reset shard %d: %w", i, err)
		}
	}
	r.queues[i] = nil
	r.water[i].Store(seq)
	// Markers fully inside the watermarks now commit nothing: prune.
	for p, e := range r.markers {
		if r.partsSatisfied(e.parts) {
			delete(r.markers, p)
		}
	}
	return nil
}

// ReplicaStats is the replica's observability snapshot. The JSON
// names are a stable wire format (STATS REPL emits it).
type ReplicaStats struct {
	Shards     int      `json:"shards"`
	Watermarks []uint64 `json:"watermarks"` // per-shard applied primary seq
	MarkerSeq  uint64   `json:"marker_seq"` // newest marker-log seq seen
	Applied    uint64   `json:"applied"`    // shard records applied
	XApplied   uint64   `json:"xapplied"`   // cross-shard txns applied atomically
	Pending    int      `json:"pending"`    // queued records held back
	Ready      bool     `json:"ready"`
	Syncing    bool     `json:"syncing"`
}

// Stats snapshots the replica's progress.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		Shards:   len(r.water),
		Applied:  r.applied.Load(),
		XApplied: r.xapplied.Load(),
		Ready:    r.Ready(),
		Syncing:  r.syncing.Load(),
	}
	st.Watermarks = make([]uint64, len(r.water))
	for i := range r.water {
		st.Watermarks[i] = r.water[i].Load()
	}
	r.mu.Lock()
	st.MarkerSeq = r.xseq
	for _, q := range r.queues {
		st.Pending += len(q)
	}
	r.mu.Unlock()
	return st
}
