package stm

import "context"

// ReadTx is the handle passed to AtomicallyRead bodies: a transaction
// that can only read, never write. Because the body provably has an
// empty write set, the commit never takes write locks on any engine.
//
// Like Tx it must not escape the body or be used concurrently.
type ReadTx struct {
	tx *Tx
}

// Read returns the transactional value of v.
func (r *ReadTx) Read(v *Var) int64 { return r.tx.Read(v) }

// Retry aborts the current attempt and re-runs the transaction from the
// beginning (counted as a conflict); see Tx.Retry.
func (r *ReadTx) Retry() { r.tx.Retry() }

// Block parks the read-only transaction until a variable it has read is
// changed by another commit; see Tx.Block.
func (r *ReadTx) Block() { r.tx.Block() }

// ReadTVar returns the transactional value of a typed variable inside a
// read-only transaction — the ReadTx twin of ReadT.
func ReadTVar[T any](r *ReadTx, v *TVar[T]) T {
	return ReadT(r.tx, v)
}

// ReadTVarBox is ReadTVar returning the box; see TVar.LoadBox.
func ReadTVarBox[T any](r *ReadTx, v *TVar[T]) *T {
	return ReadBox(r.tx, v)
}

// AtomicallyRead runs fn as a read-only transaction, retrying on
// conflicts until it commits or the retry budget is exhausted — the same
// contract as Atomically, specialized to bodies that never write. It
// never takes write locks, and on the lazy engine it commits without
// validation: each read validated against the begin-time snapshot as it
// happened, which makes the whole transaction consistent as of that
// snapshot. Errors returned by fn roll back (vacuously) and are returned
// verbatim.
func (s *STM) AtomicallyRead(fn func(*ReadTx) error) error {
	return transact(nil, "atomically-read", []*STM{s}, body{read: fn})
}

// AtomicallyReadCtx is AtomicallyRead honoring ctx between retry
// attempts, with the same contract as AtomicallyCtx.
func (s *STM) AtomicallyReadCtx(ctx context.Context, fn func(*ReadTx) error) error {
	return transact(ctx, "atomically-read", []*STM{s}, body{read: fn})
}

// AtomicallyReadMulti runs fn as one read-only transaction spanning
// several STM instances, passing it per-instance read handles aligned
// with stms. Unlike AtomicallyMulti it takes no locks at all at commit:
// after the body runs, every instance's read set is validated against
// its begin-time snapshot, and if all pass the combined snapshot is
// consistent.
//
// Soundness of the lock-free validation: for each instance i, rv_i was
// the clock at some time s_i before any of i's reads, and validation at
// time t_i (after the body) finds every read location's version still
// ≤ rv_i and unlocked — so none of i's locations took a committed write
// in [s_i, t_i]. All these intervals contain the window from the last
// begin to the first validation, which is nonempty; every value read was
// therefore the logical value throughout that common window, and the
// combined snapshot is consistent at any point inside it. (This is why
// they validate at commit, where a one-instance read-only transaction
// on the lazy engine does not: the serialization point is the common
// window, not any single rv, so per-read validation alone is not
// enough.)
//
// The retry budget is taken from stms[0]. An empty stms runs fn(nil)
// once, transactionally vacuous.
func AtomicallyReadMulti(stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return transact(nil, "atomically-read-multi", stms, body{readMulti: fn})
}

// AtomicallyReadMultiCtx is AtomicallyReadMulti honoring ctx between
// retry attempts, with the same contract as AtomicallyCtx.
func AtomicallyReadMultiCtx(ctx context.Context, stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return transact(ctx, "atomically-read-multi", stms, body{readMulti: fn})
}

// readViews returns the read-only views of the attempt's handles, aligned
// with them, in the lead handle's pooled storage (nil for no handles).
func readViews(txs []*Tx) []*ReadTx {
	if len(txs) == 0 {
		return nil
	}
	lead := txs[0]
	for _, tx := range txs[1:] {
		lead.rtxs = append(lead.rtxs, &tx.rtx)
	}
	return lead.rtxs
}
