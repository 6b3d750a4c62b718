package stm

import (
	"context"
	"time"
)

// ReadTx is the handle passed to AtomicallyRead bodies: a transaction
// that can only read, never write. Because the body provably has an
// empty write set, the commit never takes write locks on any engine, and
// on the TL2 snapshot engine the reads are invisible — no read set is
// kept and commit is O(1) with no validation (each read validates
// against the begin-time snapshot as it happens, which makes the whole
// transaction consistent as of that snapshot).
//
// Like Tx it must not escape the body or be used concurrently.
type ReadTx struct {
	tx *Tx
}

// Read returns the transactional value of v (int64 lane).
func (r *ReadTx) Read(v *Var) int64 { return r.tx.Read(v) }

// Retry aborts the current attempt and re-runs the transaction from the
// beginning (counted as a conflict); see Tx.Retry.
func (r *ReadTx) Retry() { r.tx.Retry() }

// Block parks the read-only transaction until a variable it has read is
// changed by another commit; see Tx.Block. On engines with invisible
// read-only reads (tl2) the first Block of a call re-runs the body once
// with the read set forced on, so the park registers a real footprint.
func (r *ReadTx) Block() { r.tx.Block() }

// ReadTVar returns the transactional value of a typed variable inside a
// read-only transaction — the ReadTx twin of ReadT.
func ReadTVar[T any](r *ReadTx, v *TVar[T]) T {
	return *r.tx.readBoxed(v).(*T)
}

// ReadTVarBox is ReadTVar returning the box; see TVar.LoadBox.
func ReadTVarBox[T any](r *ReadTx, v *TVar[T]) *T {
	return r.tx.readBoxed(v).(*T)
}

// AtomicallyRead runs fn as a read-only transaction, retrying on
// conflicts until it commits or the retry budget is exhausted — the same
// contract as Atomically, specialized to bodies that never write. It
// never takes write locks; on the TL2 engine it additionally keeps no
// read set and commits without validation. Errors returned by fn roll
// back (vacuously) and are returned verbatim.
func (s *STM) AtomicallyRead(fn func(*ReadTx) error) error {
	return s.atomicallyRead(nil, fn)
}

// AtomicallyReadCtx is AtomicallyRead honoring ctx between retry
// attempts, with the same contract as AtomicallyCtx.
func (s *STM) AtomicallyReadCtx(ctx context.Context, fn func(*ReadTx) error) error {
	return s.atomicallyRead(ctx, fn)
}

func (s *STM) atomicallyRead(ctx context.Context, fn func(*ReadTx) error) error {
	conflicts, parks := 0, 0
	blockNeedsReadSet := false
	m := s.metrics
	var t0 time.Time
	sampled, first := false, true
	for attempt := 0; attempt < s.maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return s.txError("atomically-read", attempt, conflicts, ErrCanceled, err)
		}
		tx := s.begin()
		if first {
			first = false
			if m != nil && tx.nextSample() {
				sampled = true
				t0 = time.Now()
			}
		}
		tx.readOnly = true
		tx.noReadSet = tx.e.invisibleReadOnly(tx) && !blockNeedsReadSet
		err, st := tx.runReadBody(fn)
		switch {
		case st == txBlocked:
			if tx.noReadSet && tx.nreads > 0 {
				// Invisible reads left nothing to park on: re-run once
				// with the read set forced on so the park is precise.
				blockNeedsReadSet = true
				tx.abortAttempt()
				continue
			}
			w := s.newWaiter()
			w.captureTx(tx)
			tx.abortAttempt()
			s.parkBlocked(ctx, w, parks)
			parks++
			continue
		case st == txConflicted:
			attempt = s.conflictedAttempt(ctx, tx, attempt)
			conflicts++
			continue
		case err != nil:
			tx.abortAttempt()
			s.stats.UserAborts.Add(1)
			return err
		}
		// The write set is empty by construction, so prepare degenerates
		// to read validation (or to a constant on engines whose read-only
		// fast path needs none).
		if tx.prepare() {
			tx.commitPrepared()
			tx.finishTx()
			s.stats.Commits.Add(1)
			s.stats.ReadOnlyCommits.Add(1)
			if sampled {
				m.ReadOnlyNs.Observe(time.Since(t0).Nanoseconds())
				m.Attempts.Observe(int64(conflicts) + 1)
			}
			return nil
		}
		attempt = s.conflictedAttempt(ctx, tx, attempt)
		conflicts++
	}
	return s.txError("atomically-read", s.maxRetries, conflicts, ErrMaxRetries, nil)
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
// multi-instance read-only transactions keep read sets even on the TL2
// engine: the serialization point is the common window, not any single
// rv, so per-read validation alone is not enough.)
//
// The retry budget is taken from stms[0]. An empty stms runs fn(nil)
// once, transactionally vacuous.
func AtomicallyReadMulti(stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return atomicallyReadMulti(nil, stms, fn)
}

// AtomicallyReadMultiCtx is AtomicallyReadMulti honoring ctx between
// retry attempts, with the same contract as AtomicallyCtx.
func AtomicallyReadMultiCtx(ctx context.Context, stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return atomicallyReadMulti(ctx, stms, fn)
}

func atomicallyReadMulti(ctx context.Context, stms []*STM, fn func(rtxs []*ReadTx) error) error {
	if len(stms) == 0 {
		if err := ctxErr(ctx); err != nil {
			return &TxError{Op: "atomically-read-multi", Err: ErrCanceled, Cause: err}
		}
		return fn(nil)
	}
	if len(stms) == 1 {
		// Single instance: the invisible-read fast path applies.
		return stms[0].atomicallyRead(ctx, func(r *ReadTx) error { return fn([]*ReadTx{r}) })
	}
	if err := rejectDuplicates(stms); err != nil {
		return err
	}
	rtxs := make([]*ReadTx, len(stms))
	abortAll := func() {
		for i := len(rtxs) - 1; i >= 0; i-- {
			rtxs[i].tx.abortAttempt()
		}
	}
	captureAll := func(attempt int) (*waiter, bool) {
		txs := make([]*Tx, len(rtxs))
		for i, r := range rtxs {
			txs[i] = r.tx
		}
		return captureConflictMulti(stms[0], txs, attempt)
	}
	conflicts, parks := 0, 0
	m := stms[0].metrics // multi commits account to the lead instance
	var t0 time.Time
	sampled, first := false, true
	for attempt := 0; attempt < stms[0].maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return stms[0].txError("atomically-read-multi", attempt, conflicts, ErrCanceled, err)
		}
		for i, s := range stms {
			tx := s.begin()
			tx.readOnly = true // read sets stay on: see the soundness note
			rtxs[i] = &tx.rtx
		}
		if first {
			first = false
			if m != nil && rtxs[0].tx.nextSample() {
				sampled = true
				t0 = time.Now()
			}
		}
		err, st := runReadMultiBody(rtxs, fn)
		switch {
		case st == txBlocked:
			w := stms[0].newWaiter()
			for _, r := range rtxs {
				w.captureTx(r.tx)
			}
			abortAll()
			stms[0].parkBlocked(ctx, w, parks)
			parks++
			continue
		case st == txConflicted:
			w, changed := captureAll(attempt)
			abortAll()
			for _, s := range stms {
				s.stats.Conflicts.Add(1)
			}
			conflicts++
			attempt++
			stms[0].afterConflict(ctx, w, changed, attempt)
			continue
		case err != nil:
			abortAll()
			for _, s := range stms {
				s.stats.UserAborts.Add(1)
			}
			return err
		}
		valid := true
		for _, r := range rtxs {
			if !r.tx.validateReads() {
				valid = false
				break
			}
		}
		if !valid {
			w, changed := captureAll(attempt)
			abortAll()
			for _, s := range stms {
				s.stats.Conflicts.Add(1)
			}
			conflicts++
			attempt++
			stms[0].afterConflict(ctx, w, changed, attempt)
			continue
		}
		// Nothing to publish; resolve the attempts.
		for i := len(rtxs) - 1; i >= 0; i-- {
			rtxs[i].tx.finishTx()
		}
		for _, s := range stms {
			s.stats.Commits.Add(1)
			s.stats.MultiCommits.Add(1)
			s.stats.ReadOnlyCommits.Add(1)
		}
		if sampled {
			m.ReadOnlyNs.Observe(time.Since(t0).Nanoseconds())
			m.Attempts.Observe(int64(conflicts) + 1)
		}
		return nil
	}
	return stms[0].txError("atomically-read-multi", stms[0].maxRetries, conflicts, ErrMaxRetries, nil)
}
