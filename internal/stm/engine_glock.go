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

func (glockEngine) read(tx *Tx, v *Var) int64 {
	// The global mutex serializes transactions, so a plain load suffices
	// for consistency — but the read still joins the read set (with the
	// version word the notification subsystem compares) so a blocked or
	// conflicted attempt knows what footprint to park on. validateReads
	// stays trivially true; the entries are wait registrations only.
	tx.reads = append(tx.reads, readEntry{vb: &v.varBase, meta: v.meta.Load()})
	tx.nreads++
	return v.val.Load()
}

func (glockEngine) write(tx *Tx, v *Var, x int64) {
	tx.undo = append(tx.undo, undoEntry{v: v, old: v.val.Load()})
	v.val.Store(x)
}

func (glockEngine) readBoxed(tx *Tx, b boxed) any {
	vb := b.base()
	tx.reads = append(tx.reads, readEntry{vb: vb, meta: vb.meta.Load()})
	tx.nreads++
	return b.loadBox()
}

func (glockEngine) writeBoxed(tx *Tx, b boxed, box any) {
	tx.pundo = append(tx.pundo, pundoEntry{b: b, old: b.loadBox()})
	b.storeBox(box)
}

func (glockEngine) prepare(tx *Tx) bool       { return true }
func (glockEngine) lockWrites(tx *Tx) bool    { return true }
func (glockEngine) validateReads(tx *Tx) bool { return true }

func (glockEngine) commit(tx *Tx) {
	if len(tx.undo)+len(tx.pundo) == 0 {
		return // read-only: don't contend the clock for nothing
	}
	// Bump written variables' versions so lazy-family readers on other
	// instances (AtomicallyMulti) and quiescence-free fast paths observe
	// the update order. The instance mutex is the commit-time lock, so
	// clockWV's lock-held requirement holds trivially.
	wv := tx.s.clockWV()
	for i := range tx.undo {
		tx.undo[i].v.meta.Store(wv << 1)
	}
	for i := range tx.pundo {
		tx.pundo[i].b.base().meta.Store(wv << 1)
	}
	// The undo logs are dropped by the Tx reset.
}

func (glockEngine) rollback(tx *Tx) {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].v.val.Store(tx.undo[i].old)
	}
	for i := len(tx.pundo) - 1; i >= 0; i-- {
		tx.pundo[i].b.storeBox(tx.pundo[i].old)
	}
	// The undo logs are dropped by the Tx reset.
}

// wakeSet announces the undo logs — every in-place write logged its
// variable, so the logs cover the published write set (repeat writes
// re-signal the same variable, which the buffered waiter channel
// collapses).
func (glockEngine) wakeSet(tx *Tx, f func(*varBase)) {
	for i := range tx.undo {
		f(&tx.undo[i].v.varBase)
	}
	for i := range tx.pundo {
		f(tx.pundo[i].b.base())
	}
}

func (glockEngine) invisibleReadOnly(tx *Tx) bool { return false }
