package stm

import (
	"context"
	"sync"
)

// ReadTx is the handle passed to AtomicallyRead bodies: the reads of
// one instance's locations through the call's snapshot, under that
// instance's bound (see Snap and Snap.Run). A read the snapshot refuses
// ends the attempt, and the call retries it or parks as the refusal
// directs; a body never sees the refused value.
//
// Like Tx it must not escape the body or be used concurrently.
type ReadTx struct {
	sn    *Snap
	bound uint64
}

// Read returns the value of v in the snapshot.
func (r *ReadTx) Read(v *Var) int64 {
	n, ok := r.sn.Read(v, r.bound)
	if !ok {
		r.sn.GiveUp()
	}
	return n
}

// Retry aborts the current attempt and re-runs the body from the
// beginning, counted as a conflict on every instance of the call; see
// Tx.Retry.
func (r *ReadTx) Retry() {
	for _, s := range r.sn.owners {
		s.stats.Conflicts.Add(1)
	}
	r.sn.GiveUp()
}

// Block parks the call until a variable it has read is changed by
// another commit; see Tx.Block.
func (r *ReadTx) Block() { panic(blockSignal{}) }

// ReadTVar returns the value of a typed variable inside a read-only
// body — the ReadTx twin of ReadT.
func ReadTVar[T any](r *ReadTx, v *TVar[T]) T {
	return *ReadTVarBox(r, v)
}

// ReadTVarBox is ReadTVar returning the box; see TVar.LoadBox.
func ReadTVarBox[T any](r *ReadTx, v *TVar[T]) *T {
	p, ok := SnapBox(r.sn, v, r.bound)
	if !ok {
		r.sn.GiveUp()
	}
	return p
}

// AtomicallyRead runs fn over a consistent snapshot of s, retrying
// until an attempt stands or the retry budget is exhausted — the same
// contract as Atomically, specialized to bodies that never write. It
// takes no lock on any engine: fn reads through a Snap bounded at the
// attempt's start, so every value it reads, at any point of any
// attempt, is the committed state of one instant, and the attempt
// stands when the snapshot validates (see Snap.Run). A read of a word a
// commit holds waits the commit out. Each attempt holds a quiescence
// slot while fn runs, so Quiesce waits for it as for a transaction.
// Errors returned by fn are returned verbatim.
func (s *STM) AtomicallyRead(fn func(*ReadTx) error) error {
	return atomicallyRead(nil, "atomically-read", []*STM{s}, func(rtxs []*ReadTx) error { return fn(rtxs[0]) })
}

// AtomicallyReadMulti runs fn over one snapshot spanning several STM
// instances, passing it per-instance read handles aligned with stms.
// Every instance's bound is taken before fn's first read, and the
// snapshot validates after fn, so the values fn reads on all instances
// held together at one instant (see Snap). It takes no locks at all.
//
// The retry budget is taken from stms[0]. An empty stms runs fn(nil)
// once, transactionally vacuous.
func AtomicallyReadMulti(stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return atomicallyRead(nil, "atomically-read-multi", stms, fn)
}

// AtomicallyReadMultiCtx is AtomicallyReadMulti honoring ctx between
// retry attempts, with the same contract as AtomicallyCtx.
func AtomicallyReadMultiCtx(ctx context.Context, stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return atomicallyRead(ctx, "atomically-read-multi", stms, fn)
}

// reader is the pooled scratch of one read-only call: its snapshot,
// its handles and the quiescence slots its running attempt holds. What
// it keeps between calls points only into itself.
type reader struct {
	sn    Snap
	rtx   []ReadTx
	rtxs  []*ReadTx
	slots []int
}

var readers = sync.Pool{New: func() any { return new(reader) }}

// atomicallyRead runs fn over a snapshot of stms (see Snap.Run) with one
// ReadTx per instance, taking each instance's quiescence slot while
// each attempt's body runs. The slots are not held across a park,
// which would keep a Quiesce waiting on a parked reader.
func atomicallyRead(ctx context.Context, op string, stms []*STM, fn func([]*ReadTx) error) error {
	if err := rejectDuplicates(stms); err != nil {
		return err
	}
	r := readers.Get().(*reader)
	r.rtx, r.rtxs = r.rtx[:0], r.rtxs[:0]
	for range stms {
		r.rtx = append(r.rtx, ReadTx{sn: &r.sn})
	}
	for i := range r.rtx {
		r.rtxs = append(r.rtxs, &r.rtx[i])
	}
	err := r.sn.run(ctx, op, stms, func(bounds []uint64) error {
		for i, s := range stms {
			r.rtx[i].bound = bounds[i]
			slot, _ := s.acquireSlot()
			r.slots = append(r.slots, slot)
		}
		defer r.releaseSlots(stms)
		return fn(r.rtxs)
	})
	readers.Put(r)
	return err
}

// releaseSlots releases the slots the running attempt holds on stms.
func (r *reader) releaseSlots(stms []*STM) {
	for i, s := range stms {
		s.releaseSlot(r.slots[i])
	}
	r.slots = r.slots[:0]
}
