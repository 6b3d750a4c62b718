package stm

// glockEngine serializes every transaction of the instance under one
// mutex (a buffered channel, so no TryLock gymnastics): the strongest —
// and slowest — baseline. Reads and writes go straight to the variables;
// an undo log supports user aborts.
type glockEngine struct{}

func (glockEngine) begin(tx *Tx) {
	tx.s.glock <- struct{}{}
	// Snapshot after acquisition so the transaction observes every commit
	// serialized before it.
	tx.rv = tx.s.clockBegin()
}

func (glockEngine) finish(tx *Tx) { <-tx.s.glock }

func (glockEngine) read(tx *Tx, l loc) (int64, any) {
	// The global mutex serializes transactions, so a plain load suffices
	// for consistency — but the read still joins the read set (with the
	// version word the notification subsystem compares) so a blocked or
	// conflicted attempt knows what footprint to park on. validateReads
	// stays trivially true; the entries are wait registrations only.
	vb := l.base()
	tx.reads = append(tx.reads, readEntry{vb: vb, meta: vb.meta.Load()})
	return l.load()
}

func (glockEngine) write(tx *Tx, l loc, n int64, p any) {
	tx.logUndo(l)
	l.store(n, p)
}

func (glockEngine) prepare(tx *Tx) bool       { return true }
func (glockEngine) lockWrites(tx *Tx) bool    { return true }
func (glockEngine) validateReads(tx *Tx) bool { return true }

func (glockEngine) commit(tx *Tx) {
	if len(tx.undo) == 0 {
		return // read-only: don't contend the clock for nothing
	}
	// Bump written variables' versions so lazy and eager readers on other
	// instances (AtomicallyMulti) and quiescence-free fast paths observe
	// the update order. The instance mutex is the commit-time lock, so
	// clockWV's lock-held requirement holds trivially.
	wv := tx.s.clockWV()
	for i := range tx.undo {
		tx.undo[i].l.base().meta.Store(wv << 1)
	}
	// The undo log is dropped by the Tx reset.
}

func (glockEngine) rollback(tx *Tx) { tx.applyUndo() }

// snapshots does not hold: writes land in place under the instance
// mutex while the words stay as they were until commit.
func (glockEngine) snapshots() bool { return false }

// wakeSet announces the undo log — every in-place write logged its
// location, so the log covers the published write set (repeat writes
// re-signal the same location, which the buffered waiter channel
// collapses).
func (glockEngine) wakeSet(tx *Tx, f func(*varBase)) {
	for i := range tx.undo {
		f(tx.undo[i].l.base())
	}
}
