package stm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Commit-notification subsystem: the event-driven replacement for the
// blind retry backoff. Every STM instance owns a waitTable — a fixed
// array of hash buckets keyed on variable ids — and every successful
// commit publishes "these variables changed" through it (see
// engine.wakeSet and Tx.commitPrepared). A transaction that must pause —
// an explicit Tx.Block, or a conflicted attempt past the spin phase —
// captures its footprint into a waiter, registers it in the buckets,
// revalidates once, and parks on a channel until a relevant commit
// signals it.
//
// The no-lost-wakeup argument is the classic register-then-revalidate
// protocol. The waiter (W1) registers under the bucket locks, then (W2)
// revalidates each captured variable's version word, then (W3) parks.
// The committer (C1) stores the new version words, then (C2) scans the
// buckets and signals matching waiters. If C2 runs before W1 and misses
// the registration, then C1 — which precedes C2 — also precedes W1 and
// therefore W2, so the revalidation observes the changed version and the
// waiter never parks. If C2 runs after W1, the shared bucket lock makes
// the registration visible and the waiter is signaled. The per-table
// `active` counter that gates the commit path is sound for the same
// reason: it is incremented before W2, so a committer that loads zero
// loaded it — and published its writes — before the revalidation.
//
// The old exponential backoff survives only as a bounded fallback: a
// conflict-park keeps a capped fallback timer for the one window
// notification cannot cover (a lock-holder that aborts releases its
// locks and publishes nothing), and an explicit Block-park keeps
// a coarse safety-net timer (seconds, not milliseconds) so even a
// mis-registered waiter revalidates eventually instead of hanging.

// waitBuckets is the bucket count of each instance's waiter table. Ids
// hash by masking, so this must stay a power of two.
const waitBuckets = 64

// waitTable is the per-STM waiter registry.
type waitTable struct {
	// active counts live registrations across all buckets. The commit
	// path loads it once per written variable and skips the bucket scan
	// entirely while it is zero, so instances with no waiters pay one
	// uncontended atomic load per written var and nothing else. Padded
	// to a line of its own: it is the gate word every writing commit
	// loads, and park/unpark RMWs on it must not invalidate the buckets.
	active atomic.Int64
	_      [56]byte

	buckets [waitBuckets]waitBucket
}

type waitBucket struct {
	// n mirrors len(regs) so the commit path can skip empty buckets
	// without taking the lock.
	n  atomic.Int32
	mu sync.Mutex

	// regs is insertion-ordered and capacity-retained: registrations are
	// appended, removals swap with the tail, so the steady-state park
	// path stops allocating once a bucket has seen its high-water mark.
	regs []waitReg

	// Tail padding rounds the bucket to one cache line (4+8+4 pad+24+24
	// = 64) so neighboring buckets — hashed to by unrelated variables —
	// never false-share their n gate words.
	_ [24]byte
}

type waitReg struct {
	id uint64
	w  *waiter
}

func (t *waitTable) bucketFor(id uint64) *waitBucket {
	return &t.buckets[id&(waitBuckets-1)]
}

// waiter is one parked transaction's registration: the captured
// footprint (variables and the version words under which they were
// observed) and the channel a committer signals. Waiters are pooled per
// STM and single-use per park; release drains and recycles them.
type waiter struct {
	s       *STM          // instance whose stats the park accrues to (and pool owner)
	ch      chan struct{} // buffered(1): multiple notifies collapse into one signal
	entries []readEntry   // captured (variable, observed meta) pairs
}

// newWaiter takes a pooled waiter (or grows the pool).
func (s *STM) newWaiter() *waiter {
	return s.waiterPool.Get().(*waiter)
}

// release drains any straggler signal, drops the captured footprint and
// returns the waiter to its pool.
func (w *waiter) release() {
	select {
	case <-w.ch:
	default:
	}
	clear(w.entries)
	w.entries = w.entries[:0]
	w.s.waiterPool.Put(w)
}

// captureTx snapshots the attempt's footprint into the waiter: the read
// set with its read-time version words, the variable whose lock or
// version raised the conflict (if any), and the write targets — a
// conflicted commit may have failed on a write-only variable that the
// read set never saw. Must run before the attempt is rolled back (see
// abortInto); version words recorded for variables this attempt itself
// locked are the pre-lock words, so the waiter does not wake on its own
// abort's lock release.
func (w *waiter) captureTx(tx *Tx) {
	w.entries = append(w.entries, tx.reads...)
	if tx.conflictVB != nil {
		w.entries = append(w.entries, readEntry{vb: tx.conflictVB, meta: tx.conflictMeta})
	}
	for i := range tx.writes {
		// A write target this attempt locked is recorded with its
		// pre-lock word (a validation-failure abort), any other with
		// the visible word.
		vb := tx.writes[i].l.base()
		m, ok := tx.lockedMetaFor(vb)
		if !ok {
			m = vb.meta.Load()
		}
		w.entries = append(w.entries, readEntry{vb: vb, meta: m})
	}
	// Encounter-time lock table (eager, global-lock): pre-lock words are
	// recorded in the entries themselves. The undo log's locations are a
	// subset of locked, so they are covered.
	for i := range tx.locked {
		w.entries = append(w.entries, readEntry{vb: tx.locked[i].vb, meta: tx.locked[i].meta})
	}
}

// rebase follows tx's rollback. An eager rollback releases the words it
// locked at a new version (tx.released): an entry that saw one of them
// just before tx locked it (tx's own read) takes the new word, so the
// park does not wake on the abort itself. An entry that saw any other
// word keeps it.
func (w *waiter) rebase(tx *Tx) {
	if tx.released == 0 {
		return
	}
	for i := range w.entries {
		e := &w.entries[i]
		for _, l := range tx.locked {
			if l.vb == e.vb && l.meta == e.meta {
				e.meta = tx.released
				break
			}
		}
	}
}

// abortInto captures the footprint of the attempt's handles into w and
// aborts them: capture before the rollback, which would restore or move
// the words, rebase after it, finish last.
func (w *waiter) abortInto(txs []*Tx) {
	for _, tx := range txs {
		w.captureTx(tx)
	}
	rollbackAll(txs)
	for _, tx := range txs {
		w.rebase(tx)
	}
	finishAll(txs)
}

// register inserts the waiter into every captured variable's bucket.
// Variables may belong to different STM instances (AtomicallyMulti);
// each registers in its owner's table.
func (w *waiter) register() {
	for i := range w.entries {
		vb := w.entries[i].vb
		t := &vb.owner.waiters
		t.active.Add(1)
		b := t.bucketFor(vb.id)
		b.mu.Lock()
		b.regs = append(b.regs, waitReg{id: vb.id, w: w})
		b.n.Add(1)
		b.mu.Unlock()
	}
}

// unregister removes every registration made by register. After it
// returns no committer can signal w (signals happen under the bucket
// locks), so release's drain leaves the channel empty for reuse.
func (w *waiter) unregister() {
	for i := range w.entries {
		vb := w.entries[i].vb
		t := &vb.owner.waiters
		b := t.bucketFor(vb.id)
		b.mu.Lock()
		for j := range b.regs {
			if b.regs[j].w == w && b.regs[j].id == vb.id {
				last := len(b.regs) - 1
				b.regs[j] = b.regs[last]
				b.regs[last] = waitReg{}
				b.regs = b.regs[:last]
				b.n.Add(-1)
				break
			}
		}
		b.mu.Unlock()
		t.active.Add(-1)
	}
}

// changed revalidates the captured footprint: true when some variable's
// version moved past the observed word, or a lock the waiter observed
// has been released (a lazy abort restores the old version, which is
// still a state change worth re-running for). A variable that is now
// locked at the same version is a commit in flight — its writeback will
// signal us, so it does not count as changed.
func (w *waiter) changed() bool {
	for i := range w.entries {
		e := &w.entries[i]
		cur := e.vb.meta.Load()
		if version(cur) != version(e.meta) || (isLocked(e.meta) && !isLocked(cur)) {
			return true
		}
	}
	return false
}

// park is the blocking heart of the subsystem: register, revalidate once
// (no lost wakeups — see the package comment), then sleep until a
// relevant commit signals the channel, the context is canceled, or the
// fallback timer insists on a recheck. The caller owns neither the
// waiter nor its registrations afterwards: park always unregisters and
// releases. fallback <= 0 means no timer (explicit blocks rely on the
// safety net their caller chose).
func (w *waiter) park(ctx context.Context, fallback time.Duration) {
	s := w.s
	w.register()
	if w.changed() {
		w.unregister()
		w.release()
		return
	}
	s.stats.Waits.Add(1)
	// Park duration is recorded unsampled: a park is microseconds at
	// minimum, so the clock reads are free relative to the sleep.
	t0 := time.Now()
	var timeC <-chan time.Time
	var timer *time.Timer
	if fallback > 0 {
		timer = time.NewTimer(fallback)
		timeC = timer.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ch:
		s.stats.Wakeups.Add(1)
	case <-timeC:
		s.stats.SpuriousWakeups.Add(1)
	case <-done:
		// The retry loop's top-of-attempt context check surfaces
		// ErrCanceled; nothing to count here.
	}
	if timer != nil {
		timer.Stop()
	}
	s.metrics.ParkNs.Observe(time.Since(t0).Nanoseconds())
	w.unregister()
	w.release()
}

// wakeVarBase signals every waiter registered on vb. Called by the
// engines' commit paths (after the new version words are visible), by
// Touch, and by the quiescence fence's broadcast. It takes only the leaf
// bucket lock, so it is safe from any context, including inside an open
// transaction.
func wakeVarBase(vb *varBase) {
	t := &vb.owner.waiters
	if t.active.Load() == 0 {
		return
	}
	b := t.bucketFor(vb.id)
	if b.n.Load() == 0 {
		return
	}
	b.mu.Lock()
	for i := range b.regs {
		if b.regs[i].id == vb.id {
			select {
			case b.regs[i].w.ch <- struct{}{}:
			default:
			}
		}
	}
	b.mu.Unlock()
}

// broadcast signals every waiter in the table, regardless of what it
// waits on. The quiescence fence uses it so that privatization cannot
// strand waiters: after Quiesce the privatized locations may change
// through plain writes that no commit will ever announce, so everyone
// parked at fence time is woken to re-read the world.
func (t *waitTable) broadcast() {
	if t.active.Load() == 0 {
		return
	}
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.n.Load() == 0 {
			continue
		}
		b.mu.Lock()
		for j := range b.regs {
			select {
			case b.regs[j].w.ch <- struct{}{}:
			default:
			}
		}
		b.mu.Unlock()
	}
}

// Touch stamps each variable with a fresh version from the instance's
// clock — without changing its value — and wakes any transactions parked
// on it. It is the notification hook for state changes that happen
// outside any transaction: internal/kv touches a per-shard keyspace
// version after linking into or unlinking from its (non-transactional)
// key table, so a transaction that found no entry there
// conflicts with, or is woken by, the change. Concurrent transactional readers of a touched variable
// conflict and retry, exactly as if a blind write to it had committed.
// The variables must belong to this instance.
func (s *STM) Touch(vs ...*Var) {
	for _, v := range vs {
		vb := &v.varBase
		for {
			m := vb.meta.Load()
			if isLocked(m) {
				// A committer holds vb; its writeback both bumps the
				// version and wakes waiters, but our caller's state
				// change is not that commit — stamp after it resolves.
				runtime.Gosched()
				continue
			}
			if vb.meta.CompareAndSwap(m, s.clockTouch()<<1) {
				break
			}
		}
		wakeVarBase(vb)
	}
}

// --- pause policy of the retry loops ---

// spinDefault is the number of leading conflicted attempts that just
// yield the processor before the retry loops start parking on the
// footprint. Immediate retry wins while conflicts are transient, and it
// keeps the short "retry onto fresh state" idiom (Retry) prompt; past it
// a loser parks and is woken by the commit it lost to.
const spinDefault = 8

// conflictFallback is the pre-notification backoff schedule, demoted to
// the fallback timer of a conflict-park: it only fires when the
// conflicting transaction aborted (publishing nothing), so the parked
// attempt still makes progress instead of waiting forever. The schedule
// starts where backoff's yields end.
func conflictFallback(attempt int) time.Duration {
	shift := attempt - spinDefault
	if shift < 0 {
		shift = 0
	}
	if shift > 12 {
		return 4 * time.Millisecond
	}
	return time.Microsecond << uint(shift)
}

// blockFallback is the safety-net recheck cadence of an explicit
// Tx.Block park, growing with consecutive parks of the same call. It
// exists to bound the damage of waits that notification genuinely cannot
// cover (e.g. a variable privatized and then plainly written after the
// fence's broadcast): a parked waiter re-runs its body a handful of
// times per minute, which is unmeasurable CPU, instead of hanging.
func blockFallback(parks int) time.Duration {
	d := 100 * time.Millisecond << uint(min(parks, 7))
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// afterConflict pauses between conflicted attempts. changed means the
// conflict proved the world already moved (a too-new read, a torn lock
// CAS), so the only right move is immediate retry; a captured waiter
// parks on the footprint with the bounded fallback; and with nothing to
// wait on (empty footprint, or still in the spin phase) the old blind
// backoff remains.
func (s *STM) afterConflict(ctx context.Context, w *waiter, changed bool, attempt int) {
	switch {
	case changed:
		runtime.Gosched()
	case w == nil || len(w.entries) == 0:
		if w != nil {
			w.release()
		}
		backoff(ctx, attempt)
	default:
		w.park(ctx, conflictFallback(attempt))
	}
}

// conflicted is the step of every conflicted attempt, with its handles
// txs on the instances stms: past the spin phase it captures the union of
// the handles' footprints — before the abort wipes them — into a waiter
// pooled on (and its park accounted to) the lead instance, unless some
// handle's conflict already proved a state change, which forces
// immediate retry. Then it aborts the handles, counts a conflict on each
// instance and pauses. It returns the incremented attempt number; the
// caller tracks its own per-call conflict diagnostics.
func conflicted(ctx context.Context, stms []*STM, txs []*Tx, attempt int) int {
	changed := false
	for _, tx := range txs {
		changed = changed || tx.conflictChanged
	}
	var w *waiter
	if !changed && attempt >= spinDefault {
		w = stms[0].newWaiter()
		w.abortInto(txs)
	} else {
		abortAll(txs)
	}
	for _, s := range stms {
		s.stats.Conflicts.Add(1)
	}
	attempt++
	stms[0].afterConflict(ctx, w, changed, attempt)
	return attempt
}

// parkBlocked parks an explicitly blocked attempt (Tx.Block) on its
// captured footprint until a relevant commit. A block with an empty
// footprint (the body blocked before reading anything) has nothing to
// wake it, so it degrades to the bounded blind backoff.
func (s *STM) parkBlocked(ctx context.Context, w *waiter, parks int) {
	if len(w.entries) == 0 {
		w.release()
		backoff(ctx, spinDefault+12+parks) // deep-backoff regime: 4ms sleeps
		return
	}
	w.park(ctx, blockFallback(parks))
}
