package stm

import (
	"context"
	"runtime"
	"time"
)

// Tx is the per-attempt transaction handle passed to Atomically bodies.
// It must not escape the body or be used concurrently: resolved handles
// are pooled and reused by later transactions of the same STM instance,
// so a leaked Tx aliases somebody else's attempt state.
//
// Tx owns the attempt state shared by every engine — the read set, the
// write set, the undo log and the lock tables, each holding Var and
// TVar[T] locations alike; the selected engine is the strategy that moves
// values through that state. Which fields are live depends on the
// engine: the lazy engine buffers writes, the eager and global-lock
// engines write in place behind the undo log.
//
// All per-attempt collections are insertion-ordered slices sized for the
// common small footprint: lookups linear-scan up to writeSetSpill
// entries and spill to a map index beyond that, and reset retains the
// slices' capacity across reuses, so the steady-state hot path performs
// no heap allocation at all.
type Tx struct {
	s       *STM
	e       engine // the instance's strategy, cached for dispatch
	rv      uint64 // read version: the begin-time snapshot of the clock
	slotIdx int32  // quiescence slot held for the attempt's lifetime

	// conflictChanged belongs to the conflict attribution below; it sits
	// here, beside slotIdx, so that the two share one word.
	conflictChanged bool

	// Read set (validation is meta-only).
	reads []readEntry

	// Lazy write set: insertion-ordered entries (the slice is the write
	// order) with a map index spill for large transactions.
	writes []wEntry
	windex map[loc]int // spill: location -> index into writes

	// Commit-time lock state while prepared, sorted by variable id (the
	// deterministic lock order); meta holds the pre-lock word for
	// restoration on abort.
	lockedMeta []lockedEntry

	// Eager and global-lock engines.
	undo   []wEntry         // pre-write values, in write order
	locked []lockedEntry    // encounter-time locks, insertion order
	lindex map[*varBase]int // spill: var -> index into locked

	// released is the word an eager rollback released every encounter
	// lock at (0: none); waiter.rebase reads it.
	released uint64

	// Conflict attribution, consumed by the parking retry loops: the
	// variable (and the word observed on it) whose lock raised the
	// conflict, so the waiter can park on it even though it never joined
	// the read set — or conflictChanged, meaning the conflict itself
	// proved the world moved (too-new version, torn CAS) and the attempt
	// should retry immediately instead of parking.
	conflictVB   *varBase
	conflictMeta uint64

	// tapData is the attempt's commit-tap payload (see SetTapData);
	// attempt-scoped: cleared on reset and consumed by commitPrepared.
	tapData any

	// txs is the attempt's handles, one per instance, kept in the lead
	// (first) handle by the attempt loop (see beginAll) so that no call
	// allocates it. It starts with this Tx itself, which reset keeps: a
	// one-instance attempt does not touch it.
	txs []*Tx

	// mTick is the latency-sampling tick (see Tx.nextSample). It is
	// deliberately NOT cleared by reset: surviving pool round-trips is
	// what lets each pooled handle carry an even 1-in-N sample stream
	// without a shared atomic counter.
	mTick uint64
}

type readEntry struct {
	vb   *varBase
	meta uint64
}

// wEntry is a location with a value (see loc): a pending write in the
// lazy write set, a pre-write value in the undo log.
type wEntry struct {
	l loc
	n int64
	p any
}

type lockedEntry struct {
	vb   *varBase
	meta uint64 // pre-lock word, restored on abort
}

// writeSetSpill is the footprint size beyond which the linear-scan
// write sets and lock tables build a map index. Up to this size a scan
// over a contiguous slice beats map hashing; past it the map wins.
const writeSetSpill = 16

// findWrite returns the index of l's buffered write, or -1.
func (tx *Tx) findWrite(l loc) int {
	if tx.windex != nil {
		if i, ok := tx.windex[l]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writes {
		if tx.writes[i].l == l {
			return i
		}
	}
	return -1
}

// putWrite buffers a write, preserving first-write order.
func (tx *Tx) putWrite(l loc, n int64, p any) {
	if i := tx.findWrite(l); i >= 0 {
		tx.writes[i].n, tx.writes[i].p = n, p
		return
	}
	tx.writes = append(tx.writes, wEntry{l: l, n: n, p: p})
	if tx.windex != nil {
		tx.windex[l] = len(tx.writes) - 1
	} else if len(tx.writes) > writeSetSpill {
		tx.windex = make(map[loc]int, 2*writeSetSpill)
		for i := range tx.writes {
			tx.windex[tx.writes[i].l] = i
		}
	}
}

// logUndo records l's value before an in-place write (eager and
// global-lock engines).
func (tx *Tx) logUndo(l loc) {
	n, p := l.load()
	tx.undo = append(tx.undo, wEntry{l: l, n: n, p: p})
}

// applyUndo restores the undo log newest-first, so a location written
// more than once ends at its value from before the first write.
func (tx *Tx) applyUndo() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := &tx.undo[i]
		u.l.store(u.n, u.p)
	}
}

// ownsLock reports whether this transaction holds vb's encounter-time
// lock (eager engine).
func (tx *Tx) ownsLock(vb *varBase) bool {
	if tx.lindex != nil {
		_, ok := tx.lindex[vb]
		return ok
	}
	for i := range tx.locked {
		if tx.locked[i].vb == vb {
			return true
		}
	}
	return false
}

// addLocked records an encounter-time lock and its pre-lock word.
func (tx *Tx) addLocked(vb *varBase, meta uint64) {
	tx.locked = append(tx.locked, lockedEntry{vb: vb, meta: meta})
	if tx.lindex != nil {
		tx.lindex[vb] = len(tx.locked) - 1
	} else if len(tx.locked) > writeSetSpill {
		tx.lindex = make(map[*varBase]int, 2*writeSetSpill)
		for i := range tx.locked {
			tx.lindex[tx.locked[i].vb] = i
		}
	}
}

// lockedMetaFor returns the pre-lock word recorded for vb by a
// successful lockWrites, if this transaction locked it. lockedMeta is
// sorted by id (the deterministic lock order), so membership is a
// binary search.
func (tx *Tx) lockedMetaFor(vb *varBase) (uint64, bool) {
	lm := tx.lockedMeta
	lo, hi := 0, len(lm)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lm[mid].vb.id < vb.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lm) && lm[lo].vb == vb {
		return lm[lo].meta, true
	}
	return 0, false
}

// reset clears the attempt state for reuse, retaining the capacity of
// every slice (reads, writes, lockedMeta, undo, locked, txs) so
// steady-state transactions never re-grow them; txs keeps its first
// entry, the Tx itself. Elements are zeroed before truncation so
// the pooled Tx does not pin dead variables or other handles. The rare
// spill indexes are dropped: small transactions must not pay the map
// path just because one large transaction came through earlier.
func (tx *Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.windex = nil
	clear(tx.lockedMeta)
	tx.lockedMeta = tx.lockedMeta[:0]
	clear(tx.undo)
	tx.undo = tx.undo[:0]
	clear(tx.locked)
	tx.locked = tx.locked[:0]
	tx.lindex = nil
	tx.released = 0
	tx.rv = 0
	tx.conflictVB, tx.conflictMeta, tx.conflictChanged = nil, 0, false
	tx.tapData = nil
	if len(tx.txs) > 1 {
		clear(tx.txs[1:])
		tx.txs = tx.txs[:1]
	}
}

// SetTapData attaches an opaque payload to the current attempt, handed
// to the instance's commit tap (STM.SetCommitTap) if and only if this
// attempt commits. The payload is attempt-scoped: an aborted or
// conflicted attempt drops it, so a retried body must re-attach on
// re-execution. Attempts that attach nothing skip the tap entirely —
// the disabled path costs one nil check at commit.
func (tx *Tx) SetTapData(d any) { tx.tapData = d }

// conflictSignal aborts the current attempt; Atomically recovers it.
type conflictSignal struct{}

// blockSignal aborts the current attempt and parks the transaction on
// its footprint; Tx.Block raises it.
type blockSignal struct{}

func (tx *Tx) conflict() {
	panic(conflictSignal{})
}

// conflictOn aborts the attempt attributing the conflict to vb, observed
// locked (or otherwise busy) with the word meta: the retry loop can park
// on vb and be woken by the commit that releases it. The contention
// table records the same attribution.
func (tx *Tx) conflictOn(vb *varBase, meta uint64) {
	tx.conflictVB, tx.conflictMeta = vb, meta
	noteContention(vb)
	panic(conflictSignal{})
}

// conflictRetryNow aborts the attempt marking the world as already
// changed (a too-new version, a torn CAS): the retry loop re-runs
// immediately instead of parking, because the next attempt's fresh
// snapshot will observe the new state.
func (tx *Tx) conflictRetryNow() {
	tx.conflictChanged = true
	panic(conflictSignal{})
}

// Retry aborts the current attempt and re-runs the transaction from the
// beginning (counted as a conflict; prompt for the first few attempts,
// then under the bounded fallback). Use it when the body observes state
// that a concurrent actor is about to change outside the transactional
// world — e.g. an entry whose removal from a plain table is in flight —
// and the only correct move is to start over against fresh state. To wait
// for transactional state to change, use Block instead. It never
// returns.
func (tx *Tx) Retry() {
	tx.conflict()
}

// Block aborts the current attempt and parks the transaction until a
// variable it has read (its footprint: the read set, plus any write
// targets) is changed by another commit, at which point the body re-runs
// from the beginning against fresh state. This is the blocking
// primitive of the transactional API — the body expresses only
// the condition ("mailbox empty, so block"), and the commit-notification
// subsystem supplies the wakeup, with no polling and no lost wakeups
// (the footprint is registered and revalidated before parking). A
// blocked attempt consumes no retry budget and no measurable CPU while
// parked; cancel it with the context of AtomicallyCtx. It never returns.
func (tx *Tx) Block() {
	panic(blockSignal{})
}

// begin opens an unmanaged transaction attempt: it takes a pooled (or
// fresh) Tx, registers the quiescence slot and hands the engine its
// begin hook (which snapshots the read version and, for the global-lock
// engine, takes the instance mutex). The caller owns the attempt's
// lifecycle and must end it with finishTx (after commitPrepared) or
// abortAll; both return the Tx to the pool.
func (s *STM) begin() *Tx {
	slotIdx, _ := s.acquireSlot()
	tx := s.txPool.Get().(*Tx)
	tx.slotIdx = int32(slotIdx)
	tx.e.begin(tx)
	return tx
}

// ctxErr returns the context's error if the context is cancelable and
// done; a nil context means "no cancellation" and costs nothing.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Atomically runs fn as a transaction, retrying on conflicts until commit
// or the retry budget is exhausted. If fn returns ErrAborted the
// transaction is rolled back and ErrAborted is returned; any other
// non-nil error also rolls back and is returned verbatim (the transaction
// takes no effect). Budget exhaustion returns a *TxError wrapping
// ErrMaxRetries.
func (s *STM) Atomically(fn func(*Tx) error) error {
	return transact(nil, "atomically", []*STM{s}, body{tx: fn})
}

// AtomicallyCtx is Atomically honoring ctx between retry attempts and
// during backoff sleeps: when the context is canceled or its deadline
// passes, the call stops retrying and returns a *TxError wrapping
// ErrCanceled and the context's error. An attempt already executing is
// never interrupted mid-body, so a nil return still means exactly one
// committed execution of fn.
func (s *STM) AtomicallyCtx(ctx context.Context, fn func(*Tx) error) error {
	return transact(ctx, "atomically", []*STM{s}, body{tx: fn})
}

// AtomicallyMulti runs fn as one transaction spanning several STM
// instances, passing it per-instance handles aligned with stms. Commit is
// two-phase: every instance prepares (commit-time locks taken, read sets
// validated), and only when all have prepared do the write sets become
// visible, so no consistent transactional reader observes a partial
// cross-instance commit. Callers that may contend on overlapping instance
// sets must pass stms in a globally consistent order (e.g. sorted by shard
// index, as internal/kv does) — instance-level locks are taken in argument
// order, and a consistent order makes the global-lock engine deadlock-free.
//
// The instances may use different engines, but the retry budget is taken
// from stms[0]. An empty stms runs fn(nil) once, transactionally vacuous.
func AtomicallyMulti(stms []*STM, fn func(txs []*Tx) error) error {
	return transact(nil, "atomically-multi", stms, body{multi: fn})
}

// AtomicallyMultiCtx is AtomicallyMulti honoring ctx between retry
// attempts, with the same contract as AtomicallyCtx.
func AtomicallyMultiCtx(ctx context.Context, stms []*STM, fn func(txs []*Tx) error) error {
	return transact(ctx, "atomically-multi", stms, body{multi: fn})
}

// rejectDuplicates guards the attempt loop: a duplicated GlobalLock
// instance would self-deadlock on its mutex, so all duplicates are
// rejected uniformly.
func rejectDuplicates(stms []*STM) error {
	for i := 1; i < len(stms); i++ {
		for j := 0; j < i; j++ {
			if stms[i] == stms[j] {
				return ErrDuplicateInstance
			}
		}
	}
	return nil
}

// transact is the attempt loop behind every writing entry point: one
// transaction over a handle on each instance of stms, Atomically being
// its one-instance case (read-only bodies run over a Snap; see
// Snap.run). An attempt begins the handles, runs b over them and
// commits in two phases (prepareAll, then commitPrepared on every
// handle); a conflicted attempt takes the conflict step and retries,
// and a blocked one parks on the union of the handles' footprints. A
// commit samples CommitNs. op names the entry point in a *TxError. The
// retry budget, the waiter and the histograms are the lead instance's
// (stms[0]); an empty stms runs b once with no handles, transactionally
// vacuous.
func transact(ctx context.Context, op string, stms []*STM, b body) error {
	if len(stms) == 0 {
		// The cancellation contract still holds: a canceled context fails
		// before the body runs.
		if err := ctxErr(ctx); err != nil {
			return &TxError{Op: op, Err: ErrCanceled, Cause: err}
		}
		err, _ := runBody(nil, &b)
		return err
	}
	if err := rejectDuplicates(stms); err != nil {
		return err
	}
	lead, multi := stms[0], len(stms) > 1
	m := lead.metrics
	conflicts, parks := 0, 0
	var t0 time.Time
	sampled, first := false, true
	for attempt := 0; attempt < lead.maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return lead.txError(op, attempt, conflicts, ErrCanceled, err)
		}
		txs := beginAll(stms)
		if first {
			// The sampling decision is made once per call, on the first
			// attempt's lead handle; retries reuse it.
			first = false
			if txs[0].nextSample() {
				sampled = true
				t0 = time.Now()
			}
		}
		err, st := runBody(txs, &b)
		switch {
		case st == txBlocked:
			// An explicit Block consumes no retry budget: a long-lived
			// waiter may legitimately park thousands of times.
			w := lead.newWaiter()
			w.abortInto(txs)
			lead.parkBlocked(ctx, w, parks)
			parks++
			continue
		case st == txConflicted:
			// Falls through to the conflict step below.
		case err != nil:
			abortAll(txs)
			for _, s := range stms {
				s.stats.UserAborts.Add(1)
			}
			return err
		case prepareAll(txs):
			for _, tx := range txs {
				tx.commitPrepared()
			}
			finishAll(txs)
			for _, s := range stms {
				s.stats.Commits.Add(1)
				if multi {
					s.stats.MultiCommits.Add(1)
				}
			}
			if sampled {
				m.CommitNs.Observe(time.Since(t0).Nanoseconds())
				m.Attempts.Observe(int64(conflicts) + 1)
			}
			return nil
		}
		attempt = conflicted(ctx, stms, txs, attempt)
		conflicts++
	}
	return lead.txError(op, lead.maxRetries, conflicts, ErrMaxRetries, nil)
}

// beginAll begins an attempt on every instance, in argument order (the
// order the global-lock engine takes its mutexes in), and returns the
// handles aligned with stms. The slice is the lead handle's pooled
// storage, valid until the lead finishes.
func beginAll(stms []*STM) []*Tx {
	lead := stms[0].begin()
	for _, s := range stms[1:] {
		lead.txs = append(lead.txs, s.begin())
	}
	return lead.txs
}

// prepareAll is commit phase one over the attempt's handles. One handle
// takes its engine's prepare, which may fast-path (a lazy attempt with
// an empty write set validated every read as it went). Several
// first take every instance's commit-time locks and only then validate
// every instance's read set. Validating inside the global lock window is
// what makes the cross-instance transaction serializable — validating
// per instance as it prepares would admit write skew (instance A's reads
// could be invalidated while instance B is still locking), and a
// read-only instance must be validated here too, since its begin-time
// snapshot may predate the commit point.
func prepareAll(txs []*Tx) bool {
	if len(txs) == 1 {
		return txs[0].prepare()
	}
	for _, tx := range txs {
		if !tx.lockWrites() {
			return false
		}
	}
	for _, tx := range txs {
		if !tx.validateReads() {
			return false
		}
	}
	return true
}

// abortAll aborts the attempt's handles: rollbackAll, then finishAll.
func abortAll(txs []*Tx) {
	rollbackAll(txs)
	finishAll(txs)
}

// rollbackAll rolls back the attempt's handles, releasing any
// prepare-phase locks, and leaves their state for a waiter to capture.
func rollbackAll(txs []*Tx) {
	for _, tx := range txs {
		tx.releasePrepared()
		tx.e.rollback(tx)
	}
}

// finishAll finishes the attempt's handles in reverse, so global locks
// release LIFO and the lead, which holds the txs slice, goes last.
func finishAll(txs []*Tx) {
	for i := len(txs) - 1; i >= 0; i-- {
		txs[i].finishTx()
	}
}

// finishTx releases the engine-level resources of a resolved attempt and
// returns the Tx to the instance pool. The handle must not be used after
// this call.
func (tx *Tx) finishTx() {
	tx.e.finish(tx)
	tx.s.releaseSlot(int(tx.slotIdx))
	tx.reset()
	tx.s.txPool.Put(tx)
}

// txStatus is how a body attempt resolved: ran to completion, aborted
// by a conflict signal, or parked itself with Tx.Block.
type txStatus int

const (
	txRan txStatus = iota
	txConflicted
	txBlocked
)

// recoverSignal is the deferred half of runBody: it converts a
// conflict or block signal into a status and re-raises anything else.
// Keeping it a named function (rather than a closure) lets every attempt
// run without allocating.
func recoverSignal(st *txStatus) {
	switch r := recover(); r.(type) {
	case nil:
	case conflictSignal:
		*st = txConflicted
	case blockSignal:
		*st = txBlocked
	default:
		panic(r)
	}
}

// body is a transaction body in the shape its entry point takes; exactly
// one field is set. A struct rather than an adapter closure per entry
// point keeps the entry points small enough to inline into their callers.
type body struct {
	tx    func(*Tx) error
	multi func([]*Tx) error
}

// runBody runs b over the attempt's handles, converting conflict and
// block signals into a status: a signal raised through any handle ends
// the whole attempt.
func runBody(txs []*Tx, b *body) (err error, st txStatus) {
	defer recoverSignal(&st)
	switch {
	case b.tx != nil:
		return b.tx(txs[0]), txRan
	default:
		return b.multi(txs), txRan
	}
}

// backoff yields (early attempts) or sleeps (persistent conflicts)
// before the next attempt — the pre-notification pause, surviving only
// as the fallback for attempts with nothing to park on (empty
// footprints) and as the duration schedule of conflictFallback. For the
// first spinDefault attempts it only yields; past them the sleep doubles
// from 1µs to a 4ms ceiling. A sleeping backoff selects on ctx so
// cancellation aborts the wait promptly instead of burning the full
// ceiling; the caller's loop then surfaces ErrCanceled.
func backoff(ctx context.Context, attempt int) {
	if attempt < spinDefault {
		runtime.Gosched()
		return
	}
	shift := attempt - spinDefault
	if shift > 12 {
		shift = 12 // cap the schedule at ~4ms
	}
	d := time.Microsecond << uint(shift)
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Read returns the transactional value of v.
func (tx *Tx) Read(v *Var) int64 {
	n, _ := tx.e.read(tx, v)
	return n
}

// Write sets the transactional value of v.
func (tx *Tx) Write(v *Var, x int64) { tx.e.write(tx, v, x, nil) }

// Abort aborts the current attempt and makes Atomically return ErrAborted.
// Provided for symmetry with the paper's abort statement; equivalent to
// returning ErrAborted from the body.
func (tx *Tx) Abort() error { return ErrAborted }

// prepare is commit phase one for a single-instance transaction; see
// engine.prepare. Multi-instance commits call lockWrites and
// validateReads separately, with a barrier between the two phases across
// instances.
func (tx *Tx) prepare() bool { return tx.e.prepare(tx) }

// lockWrites is commit phase 1a; see engine.lockWrites.
func (tx *Tx) lockWrites() bool { return tx.e.lockWrites(tx) }

// validateReads is commit phase 1b; see engine.validateReads.
func (tx *Tx) validateReads() bool { return tx.e.validateReads(tx) }

// commitPrepared is commit phase two: it publishes the write set and
// releases the commit-time locks with a fresh version; once the new
// version words are visible it announces the written variables to the
// instance's waiter table (skipped entirely — one atomic load — while no
// transaction is parked).
//
// The commit tap runs first, while the commit-time locks are still
// held: the attempt is at its serialization point (guaranteed to
// commit, not yet visible), so conflicting commits invoke the tap in
// serialization order — see STM.SetCommitTap.
func (tx *Tx) commitPrepared() {
	if tx.tapData != nil {
		if tap := tx.s.commitTap.Load(); tap != nil {
			(*tap)(tx.tapData)
		}
		tx.tapData = nil
	}
	tx.e.commit(tx)
	if tx.s.waiters.active.Load() != 0 {
		tx.e.wakeSet(tx, wakeVarBase)
	}
}

// releasePrepared drops the phase-one locks without publishing, restoring
// the pre-prepare lock words. A no-op unless lockWrites succeeded (commit
// truncates the table, and a failed lockWrites restores its own prefix).
func (tx *Tx) releasePrepared() {
	for i := range tx.lockedMeta {
		tx.lockedMeta[i].vb.meta.Store(tx.lockedMeta[i].meta)
	}
	clear(tx.lockedMeta)
	tx.lockedMeta = tx.lockedMeta[:0]
}
