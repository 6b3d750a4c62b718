package stm

import "slices"

// Snap reads locations without a transaction: a double collect over
// their lock words. Read and SnapBox load a location's word (giving up
// if it is locked) and record it, then load the value; Valid loads
// every recorded word again. When none moved, each value was the
// committed one from its first load to the re-check, those windows all
// overlap, and the values held together at one instant inside the
// calls — a linearizable read of them all. No clock read, quiescence
// slot, Tx or read set is used, so a snapshot takes no part in Quiesce:
// it writes nothing a fence would have to wait out.
//
// A read that reports false ends the snapshot: the word was locked (a
// commit is in flight, counted as a conflict on the location's
// instance) or the instance's engine cannot be read this way, and the
// caller takes a transaction instead. A Snap may span instances; Reset
// readies it for reuse, keeping its capacity. A Snap is not safe for
// concurrent use.
type Snap struct {
	reads []readEntry
}

// Read returns v's value and true, or false if the snapshot must give
// up (see Snap).
func (sn *Snap) Read(v *Var) (int64, bool) {
	if !sn.open(&v.varBase) {
		return 0, false
	}
	return v.val.Load(), true
}

// SnapBox is Read on a typed variable, returning its box (see
// TVar.LoadBox).
func SnapBox[T any](sn *Snap, v *TVar[T]) (*T, bool) {
	if !sn.open(&v.varBase) {
		return nil, false
	}
	return v.val.Load(), true
}

// open loads vb's word and records it for Valid, or reports that the
// snapshot must give up. The caller loads the value after it.
func (sn *Snap) open(vb *varBase) bool {
	if !vb.owner.eng.snapshots() {
		return false
	}
	m := vb.meta.Load()
	if isLocked(m) {
		snapConflict(vb)
		return false
	}
	sn.reads = append(sn.reads, readEntry{vb: vb, meta: m})
	return true
}

// Valid reports whether every word read is unchanged, and so whether
// the values read hold together. A valid snapshot counts as a read-only
// commit on each instance it read (a multi-instance commit when it read
// several), as AtomicallyRead and AtomicallyReadMulti count; a moved
// word counts a conflict.
func (sn *Snap) Valid() bool {
	multi := false
	for _, r := range sn.reads {
		if r.vb.meta.Load() != r.meta {
			snapConflict(r.vb)
			return false
		}
		multi = multi || r.vb.owner != sn.reads[0].vb.owner
	}
	for i, r := range sn.reads {
		s := r.vb.owner
		if slices.ContainsFunc(sn.reads[:i], func(p readEntry) bool { return p.vb.owner == s }) {
			continue // counted at its first read
		}
		s.stats.Commits.Add(1)
		s.stats.ReadOnlyCommits.Add(1)
		if multi {
			s.stats.MultiCommits.Add(1)
		}
	}
	return true
}

// Reset empties the snapshot for reuse. It does not zero what it
// recorded, which stays reachable until overwritten: the hot paths keep
// their Snap in a sync.Pool, which lets it go at a later collection.
func (sn *Snap) Reset() { sn.reads = sn.reads[:0] }

// snapConflict charges a snapshot that found vb locked or moved to vb's
// instance, as a transaction's conflict on vb would be.
func snapConflict(vb *varBase) {
	vb.owner.stats.Conflicts.Add(1)
	noteContention(vb)
}
