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

func (lazyEngine) read(tx *Tx, l loc) (int64, any) {
	if i := tx.findWrite(l); i >= 0 {
		return tx.writes[i].n, tx.writes[i].p
	}
	return sample(tx, l)
}

func (lazyEngine) write(tx *Tx, l loc, n int64, p any) { tx.putWrite(l, n, p) }

func (e lazyEngine) prepare(tx *Tx) bool {
	if len(tx.writes) == 0 {
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
	if len(tx.writes) == 0 {
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
		w.l.store(w.n, w.p)
		w.l.base().meta.Store(wv << 1) // release with the new version
	}
	clear(tx.lockedMeta)
	tx.lockedMeta = tx.lockedMeta[:0]
}

func (lazyEngine) rollback(tx *Tx) {
	// Nothing was published; the buffers are dropped by the Tx reset.
}

// wakeSet announces the buffered write set — the locations whose version
// words commit just advanced.
func (lazyEngine) wakeSet(tx *Tx, f func(*varBase)) {
	for i := range tx.writes {
		f(tx.writes[i].l.base())
	}
}
