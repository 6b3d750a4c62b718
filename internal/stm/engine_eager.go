package stm

// eagerEngine is encounter-time locking with an undo log: writes lock
// the variable on first touch and land in place; aborts restore the
// logged values. Exhibits the speculative-lost-update and dirty-read
// anomalies of §3.4 under mixed access.
type eagerEngine struct{}

func (eagerEngine) begin(tx *Tx)  { tx.rv = tx.s.clockBegin() }
func (eagerEngine) finish(tx *Tx) {}

func (eagerEngine) read(tx *Tx, v *Var) int64 {
	if tx.ownsLock(&v.varBase) {
		return v.val.Load() // we hold the lock; in-place value is ours
	}
	return sampleVar(tx, v, true, false)
}

// encounterLock takes v's lock on first write, logging the pre-lock meta
// for release and conflicting when the variable is locked elsewhere or
// newer than the snapshot. Reports whether the caller must push an undo
// entry (first touch).
func (tx *Tx) encounterLock(vb *varBase) (firstTouch bool) {
	if tx.ownsLock(vb) {
		return false
	}
	for {
		m, ok := vb.tryLock(tx.rv)
		if ok {
			tx.addLocked(vb, m)
			return true
		}
		if isLocked(m) {
			tx.conflictOn(vb, m) // park: the holder's commit wakes us
		}
		// Too new or torn: the world already moved; retry at once.
		noteContention(vb)
		tx.conflictRetryNow()
	}
}

func (eagerEngine) write(tx *Tx, v *Var, x int64) {
	if tx.encounterLock(&v.varBase) {
		tx.undo = append(tx.undo, undoEntry{v: v, old: v.val.Load()})
	}
	v.val.Store(x)
}

func (eagerEngine) readBoxed(tx *Tx, b boxed) any {
	if tx.ownsLock(b.base()) {
		return b.loadBox()
	}
	return sampleBox(tx, b, true, false)
}

func (eagerEngine) writeBoxed(tx *Tx, b boxed, box any) {
	if tx.encounterLock(b.base()) {
		tx.pundo = append(tx.pundo, pundoEntry{b: b, old: b.loadBox()})
	}
	b.storeBox(box)
}

func (e eagerEngine) prepare(tx *Tx) bool {
	// Locks were taken at encounter time; only the read set remains.
	return e.validateReads(tx)
}

func (eagerEngine) lockWrites(tx *Tx) bool { return true }

func (eagerEngine) validateReads(tx *Tx) bool {
	for i := range tx.reads {
		re := &tx.reads[i]
		if tx.ownsLock(re.vb) {
			continue // we hold the lock; value unchanged since read
		}
		cur := re.vb.meta.Load()
		if isLocked(cur) || version(cur) > tx.rv {
			noteContention(re.vb)
			return false
		}
	}
	return true
}

func (eagerEngine) commit(tx *Tx) {
	if len(tx.locked) == 0 {
		return // read-only: don't contend the clock for nothing
	}
	// Encounter locks are all held here, as clockWV requires.
	wv := tx.s.clockWV()
	for i := range tx.locked {
		tx.locked[i].vb.meta.Store(wv << 1)
	}
	// The lock table and undo logs are dropped by the Tx reset.
}

func (eagerEngine) rollback(tx *Tx) {
	s := tx.s
	if s.RollbackDelay != nil && len(tx.undo)+len(tx.pundo) > 0 {
		// The anomaly window of §3.4: speculative values are visible to
		// plain accesses until the undo log is applied.
		s.RollbackDelay()
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].v.val.Store(tx.undo[i].old)
	}
	for i := len(tx.pundo) - 1; i >= 0; i-- {
		tx.pundo[i].b.storeBox(tx.pundo[i].old)
	}
	for i := range tx.locked {
		tx.locked[i].vb.meta.Store(tx.locked[i].meta) // release, version unchanged
	}
	// The lock table and undo logs are dropped by the Tx reset.
}

// wakeSet announces the encounter-time lock table: every lock was taken
// by a write, so it is exactly the published write set.
func (eagerEngine) wakeSet(tx *Tx, f func(*varBase)) {
	for i := range tx.locked {
		f(tx.locked[i].vb)
	}
}

func (eagerEngine) invisibleReadOnly(tx *Tx) bool { return false }
