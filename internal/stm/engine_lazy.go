package stm

// lazyEngine is TL2-style lazy versioning: writes are buffered in the
// transaction and applied at commit under per-variable versioned locks,
// validated against the global version clock. Reads validate against the
// begin-time snapshot at read time and again (via the read set) at
// commit. Exhibits the delayed-writeback privatization anomaly of
// §3.5/§5 unless fences are used.
type lazyEngine struct{}

func (lazyEngine) begin(tx *Tx)  { tx.rv = tx.s.clockBegin() }
func (lazyEngine) finish(tx *Tx) {}

func (lazyEngine) read(tx *Tx, v *Var) int64 {
	if val, ok := tx.lookupWrite(v); ok {
		return val
	}
	return sampleVar(tx, v, true, false)
}

func (lazyEngine) write(tx *Tx, v *Var, x int64) { tx.putWrite(v, x) }

func (lazyEngine) readBoxed(tx *Tx, b boxed) any {
	if box, ok := tx.lookupPWrite(b); ok {
		return box
	}
	return sampleBox(tx, b, true, false)
}

func (lazyEngine) writeBoxed(tx *Tx, b boxed, box any) { tx.putPWrite(b, box) }

func (e lazyEngine) prepare(tx *Tx) bool {
	if len(tx.writes)+len(tx.pwrites) == 0 {
		// Single-instance read-only fast path: every read was validated
		// against rv at read time, so the snapshot is consistent as of rv.
		// (Not sound for multi-instance commits, whose serialization point
		// is later than rv — they always run validateReads.)
		return true
	}
	return e.lockWrites(tx) && e.validateReads(tx)
}

func (lazyEngine) lockWrites(tx *Tx) bool { return lockWriteSetSorted(tx) }

func (lazyEngine) validateReads(tx *Tx) bool {
	for i := range tx.reads {
		re := &tx.reads[i]
		if mv, mine := tx.lockedMetaFor(re.vb); mine {
			if version(re.meta) != version(mv) {
				noteContention(re.vb)
				return false // someone updated between our read and our lock
			}
			continue
		}
		cur := re.vb.meta.Load()
		if isLocked(cur) || version(cur) > tx.rv {
			noteContention(re.vb)
			return false
		}
	}
	return true
}

func (lazyEngine) commit(tx *Tx) {
	s := tx.s
	if len(tx.writes)+len(tx.pwrites) == 0 {
		return
	}
	// clockWV is legal here and only here: every commit-time lock is
	// held (prepare/lockWrites succeeded).
	wv := s.clockWV()
	// The anomaly window of §3.5: the transaction is logically committed
	// but its buffered writes are not yet applied.
	if s.WritebackDelay != nil {
		s.WritebackDelay()
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		w.v.val.Store(w.val)
		w.v.meta.Store(wv << 1) // release with the new version
	}
	for i := range tx.pwrites {
		p := &tx.pwrites[i]
		p.b.storeBox(p.box)
		p.b.base().meta.Store(wv << 1)
	}
	clear(tx.lockedMeta)
	tx.lockedMeta = tx.lockedMeta[:0]
}

func (lazyEngine) rollback(tx *Tx) {
	// Nothing was published; the buffers are dropped by the Tx reset.
}

// wakeSet announces the buffered write set (both lanes) — the variables
// whose version words commit just advanced. The tl2 engine inherits
// this along with the commit protocol.
func (lazyEngine) wakeSet(tx *Tx, f func(*varBase)) {
	for i := range tx.writes {
		f(&tx.writes[i].v.varBase)
	}
	for i := range tx.pwrites {
		f(tx.pwrites[i].b.base())
	}
}

func (lazyEngine) invisibleReadOnly(tx *Tx) bool { return false }
