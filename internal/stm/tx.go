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
// two write lanes (inline int64 for Var, opaque boxes for TVar[T]), the
// undo logs and the lock tables; the selected engine is the strategy
// that moves values through that state. Which fields are live depends on
// the engine: the lazy family buffers writes, the eager and global-lock
// engines write in place behind undo logs.
//
// All per-attempt collections are insertion-ordered slices sized for the
// common small footprint: lookups linear-scan up to writeSetSpill
// entries and spill to a map index beyond that, and reset retains the
// slices' capacity across reuses, so the steady-state hot path performs
// no heap allocation at all.
type Tx struct {
	s       *STM
	e       engine // the instance's strategy, cached for dispatch
	del     engine // adaptive engine's delegate, pinned per attempt at begin
	rv      uint64 // read version (TL2 snapshot)
	slotIdx int    // quiescence slot held for the attempt's lifetime

	// Read set, shared by both lanes (validation is meta-only). nreads
	// counts every sampled read, including invisible ones that skip the
	// read set (see engine.invisibleReadOnly and Tx.extendSnapshot).
	reads  []readEntry
	nreads int

	// readOnly marks attempts driven by AtomicallyRead (the body cannot
	// write); noReadSet additionally marks single-instance read-only
	// attempts on engines with invisible reads.
	readOnly  bool
	noReadSet bool

	// Lazy-family write sets: insertion-ordered entries (the slice is
	// the write order) with a map index spill for large transactions.
	writes  []wEntry      // int64 lane
	windex  map[*Var]int  // spill: var -> index into writes
	pwrites []pEntry      // pointer lane (pending boxes)
	pindex  map[boxed]int // spill: box -> index into pwrites

	// Commit-time lock state while prepared, sorted by variable id (the
	// deterministic lock order); meta holds the pre-lock word for
	// restoration on abort.
	lockedMeta []lockedEntry

	// Eager and global-lock engines.
	undo   []undoEntry      // int64 lane
	pundo  []pundoEntry     // pointer lane
	locked []lockedEntry    // encounter-time locks, insertion order
	lindex map[*varBase]int // spill: var -> index into locked

	// Conflict attribution, consumed by the parking retry loops: the
	// variable (and the word observed on it) whose lock raised the
	// conflict, so the waiter can park on it even though it never joined
	// the read set — or conflictChanged, meaning the conflict itself
	// proved the world moved (too-new version, torn CAS) and the attempt
	// should retry immediately instead of parking.
	conflictVB      *varBase
	conflictMeta    uint64
	conflictChanged bool

	// tapData is the attempt's commit-tap payload (see SetTapData);
	// attempt-scoped: cleared on reset and consumed by commitPrepared.
	tapData any

	// rtx is the read-only view handed to AtomicallyRead bodies; it
	// points back at this Tx so no per-attempt wrapper is allocated.
	rtx ReadTx

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

type wEntry struct {
	v   *Var
	val int64
}

type pEntry struct {
	b   boxed
	box any
}

type lockedEntry struct {
	vb   *varBase
	meta uint64 // pre-lock word, restored on abort
}

type undoEntry struct {
	v   *Var
	old int64
}

type pundoEntry struct {
	b   boxed
	old any
}

// writeSetSpill is the footprint size beyond which the linear-scan
// write sets and lock tables build a map index. Up to this size a scan
// over a contiguous slice beats map hashing; past it the map wins.
const writeSetSpill = 16

// lookupWrite returns the buffered int64-lane value of v, if any.
func (tx *Tx) lookupWrite(v *Var) (int64, bool) {
	if tx.windex != nil {
		if i, ok := tx.windex[v]; ok {
			return tx.writes[i].val, true
		}
		return 0, false
	}
	for i := range tx.writes {
		if tx.writes[i].v == v {
			return tx.writes[i].val, true
		}
	}
	return 0, false
}

// putWrite buffers an int64-lane write, preserving first-write order.
func (tx *Tx) putWrite(v *Var, x int64) {
	if tx.windex != nil {
		if i, ok := tx.windex[v]; ok {
			tx.writes[i].val = x
			return
		}
	} else {
		for i := range tx.writes {
			if tx.writes[i].v == v {
				tx.writes[i].val = x
				return
			}
		}
	}
	tx.writes = append(tx.writes, wEntry{v: v, val: x})
	if tx.windex != nil {
		tx.windex[v] = len(tx.writes) - 1
	} else if len(tx.writes) > writeSetSpill {
		tx.windex = make(map[*Var]int, 2*writeSetSpill)
		for i := range tx.writes {
			tx.windex[tx.writes[i].v] = i
		}
	}
}

// lookupPWrite returns the buffered pointer-lane box of b, if any.
func (tx *Tx) lookupPWrite(b boxed) (any, bool) {
	if tx.pindex != nil {
		if i, ok := tx.pindex[b]; ok {
			return tx.pwrites[i].box, true
		}
		return nil, false
	}
	for i := range tx.pwrites {
		if tx.pwrites[i].b == b {
			return tx.pwrites[i].box, true
		}
	}
	return nil, false
}

// putPWrite buffers a pointer-lane write, preserving first-write order.
func (tx *Tx) putPWrite(b boxed, box any) {
	if tx.pindex != nil {
		if i, ok := tx.pindex[b]; ok {
			tx.pwrites[i].box = box
			return
		}
	} else {
		for i := range tx.pwrites {
			if tx.pwrites[i].b == b {
				tx.pwrites[i].box = box
				return
			}
		}
	}
	tx.pwrites = append(tx.pwrites, pEntry{b: b, box: box})
	if tx.pindex != nil {
		tx.pindex[b] = len(tx.pwrites) - 1
	} else if len(tx.pwrites) > writeSetSpill {
		tx.pindex = make(map[boxed]int, 2*writeSetSpill)
		for i := range tx.pwrites {
			tx.pindex[tx.pwrites[i].b] = i
		}
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
// every slice (reads, writes, pwrites, lockedMeta, undo, pundo, locked)
// so steady-state transactions never re-grow them. Elements are zeroed
// before truncation so the pooled Tx does not pin dead variables. The
// rare spill indexes are dropped: small transactions must not pay the
// map path just because one large transaction came through earlier.
func (tx *Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	tx.nreads = 0
	tx.readOnly, tx.noReadSet = false, false
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.windex = nil
	clear(tx.pwrites)
	tx.pwrites = tx.pwrites[:0]
	tx.pindex = nil
	clear(tx.lockedMeta)
	tx.lockedMeta = tx.lockedMeta[:0]
	clear(tx.undo)
	tx.undo = tx.undo[:0]
	clear(tx.pundo)
	tx.pundo = tx.pundo[:0]
	clear(tx.locked)
	tx.locked = tx.locked[:0]
	tx.lindex = nil
	tx.rv = 0
	tx.conflictVB, tx.conflictMeta, tx.conflictChanged = nil, 0, false
	tx.tapData = nil
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
// from the beginning against fresh state. This is the composable
// blocking primitive of the transactional API — the body expresses only
// the condition ("queue empty, so block"), and the commit-notification
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
// abortAttempt; both return the Tx to the pool.
func (s *STM) begin() *Tx {
	slotIdx, _ := s.acquireSlot()
	tx := s.txPool.Get().(*Tx)
	tx.slotIdx = slotIdx
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
	return s.atomically(nil, fn)
}

// AtomicallyCtx is Atomically honoring ctx between retry attempts and
// during backoff sleeps: when the context is canceled or its deadline
// passes, the call stops retrying and returns a *TxError wrapping
// ErrCanceled and the context's error. An attempt already executing is
// never interrupted mid-body, so a nil return still means exactly one
// committed execution of fn.
func (s *STM) AtomicallyCtx(ctx context.Context, fn func(*Tx) error) error {
	return s.atomically(ctx, fn)
}

func (s *STM) atomically(ctx context.Context, fn func(*Tx) error) error {
	conflicts, parks := 0, 0
	m := s.metrics
	var t0 time.Time
	sampled, first := false, true
	for attempt := 0; attempt < s.maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return s.txError("atomically", attempt, conflicts, ErrCanceled, err)
		}
		tx := s.begin()
		if first {
			// The sampling decision is made once per call, on the first
			// attempt's pooled handle; retries reuse it.
			first = false
			if m != nil && tx.nextSample() {
				sampled = true
				t0 = time.Now()
			}
		}
		err, st := tx.runBody(fn)
		switch st {
		case txBlocked:
			// An explicit Block consumes no retry budget: a long-lived
			// waiter may legitimately park thousands of times.
			w := s.newWaiter()
			w.captureTx(tx)
			tx.abortAttempt()
			s.parkBlocked(ctx, w, parks)
			parks++
			continue
		case txConflicted:
			attempt = s.conflictedAttempt(ctx, tx, attempt)
			conflicts++
			continue
		}
		if err != nil {
			tx.abortAttempt()
			s.stats.UserAborts.Add(1)
			return err
		}
		if tx.prepare() {
			tx.commitPrepared()
			tx.finishTx()
			s.stats.Commits.Add(1)
			if sampled {
				m.CommitNs.Observe(time.Since(t0).Nanoseconds())
				m.Attempts.Observe(int64(conflicts) + 1)
			}
			return nil
		}
		attempt = s.conflictedAttempt(ctx, tx, attempt)
		conflicts++
	}
	return s.txError("atomically", s.maxRetries, conflicts, ErrMaxRetries, nil)
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
	return atomicallyMulti(nil, stms, fn)
}

// AtomicallyMultiCtx is AtomicallyMulti honoring ctx between retry
// attempts, with the same contract as AtomicallyCtx.
func AtomicallyMultiCtx(ctx context.Context, stms []*STM, fn func(txs []*Tx) error) error {
	return atomicallyMulti(ctx, stms, fn)
}

// rejectDuplicates guards the multi-instance entry points: a duplicated
// GlobalLock instance would self-deadlock on its mutex, so all
// duplicates are rejected uniformly.
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

// abortAllTx unwinds a multi-instance attempt in reverse so global locks
// release LIFO.
func abortAllTx(txs []*Tx) {
	for i := len(txs) - 1; i >= 0; i-- {
		txs[i].abortAttempt()
	}
}

func atomicallyMulti(ctx context.Context, stms []*STM, fn func(txs []*Tx) error) error {
	if len(stms) == 0 {
		// Transactionally vacuous, but the cancellation contract still
		// holds: a canceled context fails before the body runs.
		if err := ctxErr(ctx); err != nil {
			return &TxError{Op: "atomically-multi", Err: ErrCanceled, Cause: err}
		}
		return fn(nil)
	}
	if len(stms) == 1 {
		// One handle-slice per call, not per attempt.
		var one [1]*Tx
		return stms[0].atomically(ctx, func(tx *Tx) error {
			one[0] = tx
			return fn(one[:])
		})
	}
	if err := rejectDuplicates(stms); err != nil {
		return err
	}
	txs := make([]*Tx, len(stms))
	conflicts, parks := 0, 0
	m := stms[0].metrics // multi commits account to the lead instance
	var t0 time.Time
	sampled, first := false, true
	for attempt := 0; attempt < stms[0].maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return stms[0].txError("atomically-multi", attempt, conflicts, ErrCanceled, err)
		}
		for i, s := range stms {
			txs[i] = s.begin()
		}
		if first {
			first = false
			if m != nil && txs[0].nextSample() {
				sampled = true
				t0 = time.Now()
			}
		}
		err, st := runMultiBody(txs, fn)
		switch {
		case st == txBlocked:
			w := stms[0].newWaiter()
			for _, tx := range txs {
				w.captureTx(tx)
			}
			abortAllTx(txs)
			stms[0].parkBlocked(ctx, w, parks)
			parks++
			continue
		case st == txConflicted:
			w, changed := captureConflictMulti(stms[0], txs, attempt)
			abortAllTx(txs)
			for _, s := range stms {
				s.stats.Conflicts.Add(1)
			}
			conflicts++
			attempt++
			stms[0].afterConflict(ctx, w, changed, attempt)
			continue
		case err != nil:
			abortAllTx(txs)
			for _, s := range stms {
				s.stats.UserAborts.Add(1)
			}
			return err
		}
		// Two-phase, whole-footprint commit: first take every instance's
		// commit-time locks, and only then validate every instance's read
		// set. Validating inside the global lock window is what makes the
		// cross-instance transaction serializable — validating per
		// instance as it prepares would admit write skew (instance A's
		// reads could be invalidated while instance B is still locking),
		// and a read-only instance must be validated here too, since its
		// begin-time snapshot may predate the commit point.
		prepared := true
		for _, tx := range txs {
			if !tx.lockWrites() {
				prepared = false
				break
			}
		}
		if prepared {
			for _, tx := range txs {
				if !tx.validateReads() {
					prepared = false
					break
				}
			}
		}
		if !prepared {
			w, changed := captureConflictMulti(stms[0], txs, attempt)
			abortAllTx(txs)
			for _, s := range stms {
				s.stats.Conflicts.Add(1)
			}
			conflicts++
			attempt++
			stms[0].afterConflict(ctx, w, changed, attempt)
			continue
		}
		for _, tx := range txs {
			tx.commitPrepared()
		}
		for i := len(txs) - 1; i >= 0; i-- {
			txs[i].finishTx()
		}
		for _, s := range stms {
			s.stats.Commits.Add(1)
			s.stats.MultiCommits.Add(1)
		}
		if sampled {
			m.CommitNs.Observe(time.Since(t0).Nanoseconds())
			m.Attempts.Observe(int64(conflicts) + 1)
		}
		return nil
	}
	return stms[0].txError("atomically-multi", stms[0].maxRetries, conflicts, ErrMaxRetries, nil)
}

// finishTx releases the engine-level resources of a resolved attempt and
// returns the Tx to the instance pool. The handle must not be used after
// this call.
func (tx *Tx) finishTx() {
	tx.e.finish(tx)
	tx.s.releaseSlot(tx.slotIdx)
	tx.reset()
	tx.s.txPool.Put(tx)
}

// abortAttempt rolls back an attempt (releasing any prepare-phase locks)
// and finishes it.
func (tx *Tx) abortAttempt() {
	tx.releasePrepared()
	tx.e.rollback(tx)
	tx.finishTx()
}

// txStatus is how a body attempt resolved: ran to completion, aborted
// by a conflict signal, or parked itself with Tx.Block.
type txStatus int

const (
	txRan txStatus = iota
	txConflicted
	txBlocked
)

// recoverSignal is the deferred half of the body runners: it converts a
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

// runBody executes fn, converting conflict and block signals into a
// status.
func (tx *Tx) runBody(fn func(*Tx) error) (err error, st txStatus) {
	defer recoverSignal(&st)
	return fn(tx), txRan
}

// runReadBody executes a read-only body against the Tx's embedded
// ReadTx view.
func (tx *Tx) runReadBody(fn func(*ReadTx) error) (err error, st txStatus) {
	defer recoverSignal(&st)
	return fn(&tx.rtx), txRan
}

// runMultiBody executes fn over the attempt's handles; a conflict raised
// by any participating instance aborts the whole attempt.
func runMultiBody(txs []*Tx, fn func([]*Tx) error) (err error, st txStatus) {
	defer recoverSignal(&st)
	return fn(txs), txRan
}

// runReadMultiBody is runMultiBody for read-only views.
func runReadMultiBody(rtxs []*ReadTx, fn func([]*ReadTx) error) (err error, st txStatus) {
	defer recoverSignal(&st)
	return fn(rtxs), txRan
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

// Read returns the transactional value of v (int64 lane).
func (tx *Tx) Read(v *Var) int64 { return tx.e.read(tx, v) }

// Write sets the transactional value of v (int64 lane).
func (tx *Tx) Write(v *Var, x int64) { tx.e.write(tx, v, x) }

// readBoxed is the pointer-lane twin of Read: same sampling, validation
// and read-set protocol, moving an opaque box instead of an int64. The
// typed wrappers ReadT and WriteT do the only casts.
func (tx *Tx) readBoxed(b boxed) any { return tx.e.readBoxed(tx, b) }

// writeBoxed is the pointer-lane twin of Write.
func (tx *Tx) writeBoxed(b boxed, box any) { tx.e.writeBoxed(tx, b, box) }

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
