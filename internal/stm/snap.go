package stm

import "slices"

// Snap reads locations without a transaction: a double collect over
// their lock words. Read and SnapBox load a location's word (giving up
// if it is locked), the value, and the word again (loading both again
// if the word moved in between), and record the word; Valid loads every
// recorded word again. When none moved, each value was the committed
// one from its first load to the re-check, those windows all overlap,
// and the values held together at one instant inside the calls — a
// linearizable read of them all. No quiescence slot, Tx or read set is
// used, so a snapshot takes no part in Quiesce: it writes nothing a
// fence would have to wait out.
//
// Each read also takes a bound: a read gives up on a word whose version
// is above it, as a transaction's read gives up on a word newer than
// its begin. Valid alone needs no bound (math.MaxUint64 refuses
// nothing); a bound makes the snapshot opaque, so that a caller acting
// on each value as it reads never sees two values no single instant
// held. Bound returns an instance's bound, and every bound must be
// taken before the snapshot's first read: a commit locks every word
// it writes, on every instance, before it takes a version on any, so
// once every bound is loaded each of its words reads either from before
// it or from after it on every instance — or is refused. A bound taken
// at an instance's first read is too late: a snapshot could read a's
// old value on one instance, a commit could then move a and b, and a
// later bound on b's instance would let the new b through beside the
// old a. Valid would catch that pair, but only after the caller had
// acted on it.
//
// A snapshot that takes bounds must read only the instances it bounded,
// each under its own bound; it counts its commit on those instances
// (see Valid). One that takes none passes math.MaxUint64.
//
// A read that reports false ends the snapshot: the word was locked (a
// commit is in flight, counted as a conflict on the location's
// instance), newer than the bound (counted the same way), or the
// instance's engine cannot be read this way, and the caller takes a
// transaction instead. A Snap may span instances; Reset readies it for
// reuse, keeping its capacity. A Snap is not safe for concurrent use.
type Snap struct {
	reads   []readEntry
	owners  []*STM // the distinct instances: the bounded ones, or those read
	bounded bool   // owners was built by Bound
}

// Bound returns the bound of the snapshot's reads of s's locations,
// taken now: a read under it gives up on any word committed after this
// call. Call it once per instance, before the first read. ok is false
// when s's engine cannot be read by a Snap at all.
func (sn *Snap) Bound(s *STM) (bound uint64, ok bool) {
	if !s.eng.snapshots() {
		return 0, false
	}
	sn.owners = append(sn.owners, s)
	sn.bounded = true
	return s.clockBegin(), true
}

// Read returns v's value and true, or false if the snapshot must give
// up (see Snap). bound is the bound of v's instance.
func (sn *Snap) Read(v *Var, bound uint64) (int64, bool) {
	for {
		m, ok := sn.open(&v.varBase, bound)
		if !ok {
			return 0, false
		}
		n := v.val.Load()
		if sn.close(&v.varBase, m) {
			return n, true
		}
	}
}

// SnapBox is Read on a typed variable, returning its box (see
// TVar.LoadBox).
func SnapBox[T any](sn *Snap, v *TVar[T], bound uint64) (*T, bool) {
	for {
		m, ok := sn.open(&v.varBase, bound)
		if !ok {
			return nil, false
		}
		p := v.val.Load()
		if sn.close(&v.varBase, m) {
			return p, true
		}
	}
}

// open loads vb's word before the value, or reports that the snapshot
// must give up.
func (sn *Snap) open(vb *varBase, bound uint64) (uint64, bool) {
	if !vb.owner.eng.snapshots() {
		return 0, false
	}
	m := vb.meta.Load()
	if isLocked(m) || version(m) > bound {
		snapConflict(vb)
		return 0, false
	}
	return m, true
}

// close loads vb's word after the value. Unchanged from m, it records m
// for Valid and the value stands; moved, a commit or an in-place write
// landed in between and the caller loads both again.
func (sn *Snap) close(vb *varBase, m uint64) bool {
	if vb.meta.Load() != m {
		return false
	}
	sn.reads = append(sn.reads, readEntry{vb: vb, meta: m})
	return true
}

// Valid reports whether every word read is unchanged, and so whether
// the values read hold together. A valid snapshot counts as a read-only
// commit on each instance it bounded, or if it bounded none on each
// instance it read — a multi-instance commit when there are several —
// as AtomicallyRead and AtomicallyReadMulti count on each instance they
// span; a moved word counts a conflict. A bounded snapshot's
// accounting is one pass over its bounds; an unbounded one finds the
// instances it read by a search per read among those found so far.
func (sn *Snap) Valid() bool {
	for _, r := range sn.reads {
		if r.vb.meta.Load() != r.meta {
			snapConflict(r.vb)
			return false
		}
		if s := r.vb.owner; !sn.bounded && !slices.Contains(sn.owners, s) {
			sn.owners = append(sn.owners, s)
		}
	}
	multi := len(sn.owners) > 1
	for _, s := range sn.owners {
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
func (sn *Snap) Reset() {
	sn.reads = sn.reads[:0]
	sn.owners = sn.owners[:0]
	sn.bounded = false
}

// snapConflict charges a snapshot that found vb locked, too new or
// moved to vb's instance, as a transaction's conflict on vb would be.
func snapConflict(vb *varBase) {
	vb.owner.stats.Conflicts.Add(1)
	noteContention(vb)
}
