package stm

// tl2Engine is the snapshot engine: the lazy commit protocol (buffered
// writes, commit-time locks, global version clock) refined with the two
// signature TL2 moves.
//
//   - Timestamp extension: a read that finds a variable newer than the
//     begin-time snapshot revalidates the read set against the current
//     clock and moves rv forward instead of aborting the attempt, so
//     long transactions survive unrelated commits.
//   - Invisible read-only transactions: AtomicallyRead bodies keep no
//     read set at all. Each read validates against rv as it happens,
//     making the whole transaction consistent as of rv; commit is O(1)
//     with no locks and no validation. (Multi-instance read-only
//     transactions still record reads: their serialization point is the
//     cross-instance validation, not any single rv.)
//
// Writes are buffered exactly as in the lazy engine, so tl2 inherits the
// §3.5 delayed-writeback privatization anomaly — new engines are new
// scenarios, not new guarantees; use Quiesce for privatization. It also
// inherits the lazy engine's commit path wholesale, including wakeSet:
// commit notification announces the buffered write set after writeback.
//
// Invisible reads interact with blocking: a read-only tl2 attempt keeps
// no read set, so when its body calls Block the runtime re-runs it once
// with the read set forced on (see transact) — visible reads for
// that call only — and parks precisely from then on.
type tl2Engine struct{ lazyEngine }

func (tl2Engine) read(tx *Tx, v *Var) int64 {
	if val, ok := tx.lookupWrite(v); ok {
		return val
	}
	return sampleVar(tx, v, !tx.noReadSet, true)
}

func (tl2Engine) readBoxed(tx *Tx, b boxed) any {
	if box, ok := tx.lookupPWrite(b); ok {
		return box
	}
	return sampleBox(tx, b, !tx.noReadSet, true)
}

func (tl2Engine) invisibleReadOnly() bool { return true }
