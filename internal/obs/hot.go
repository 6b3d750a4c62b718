package obs

import "sync/atomic"

// hotSlots is the fixed capacity of a HotTable. Contention profiles are
// heavy-tailed by nature (that is what makes them worth attributing), so
// a small table tracks the head of the distribution accurately while the
// tail lands in the dropped counter.
const hotSlots = 16

// HotTable is a fixed-size, allocation-free approximate top-K frequency
// table keyed by nonzero uint64 ids — the contention-attribution sink of
// the runtime: every conflict records the id of the variable it lost to,
// and snapshots map ids back to key names at read time (the table itself
// is name-oblivious, so the write side stays a handful of atomic ops).
//
// The algorithm is lossy counting in the space-saving family: a recorded
// id that is resident increments its slot; a new id takes a free slot if
// one exists; otherwise the smallest resident count is decremented (and
// its slot recycled once it reaches zero), so a genuinely hot id evicts
// the table's noise while sporadic ids cancel each other out. Counts are
// therefore approximate — on skewed workloads the head of the table
// converges to the true hot set, which is the use case. Races between
// recorders can lose or misattribute individual increments; the table
// trades per-record exactness for a lock-free write side.
//
// The zero value is an empty table, ready for use.
type HotTable struct {
	_       [64]byte
	slots   [hotSlots]hotSlot
	dropped atomic.Uint64 // records that only decayed the table
	_       [48]byte
}

type hotSlot struct {
	id atomic.Uint64 // 0 = free
	n  atomic.Uint64
}

// Record attributes one event to id. id 0 (no attribution) is ignored.
// It never allocates and never blocks: a few scans of the fixed slot
// array at most, and a few atomic ops.
func (t *HotTable) Record(id uint64) {
	if id == 0 {
		return
	}
	var min *hotSlot
	var minID, minN uint64
	for {
		var free *hotSlot
		min = nil
		for i := range t.slots {
			s := &t.slots[i]
			got := s.id.Load()
			if got == id {
				s.n.Add(1)
				return
			}
			if got == 0 {
				if free == nil {
					free = s
				}
				continue
			}
			if n := s.n.Load(); min == nil || n < minN {
				min, minID, minN = s, got, n
			}
		}
		if free == nil {
			break
		}
		if free.id.CompareAndSwap(0, id) {
			free.n.Add(1)
			return
		}
		// Another recorder took the free slot, perhaps for id itself:
		// rescan. Outside decay and Reset a slot only goes from free to
		// taken, so this repeats at most hotSlots times.
	}
	// Table full: decay the smallest resident count; once a slot has
	// decayed to zero its id is recycled for the newcomer. A lost CAS
	// means another recorder got there first — count the record as
	// dropped rather than retrying (this is a profile, not a ledger).
	if min == nil {
		t.dropped.Add(1)
		return
	}
	if minN == 0 {
		if min.id.CompareAndSwap(minID, id) {
			min.n.Add(1)
			return
		}
	} else {
		min.n.Add(^uint64(0)) // decrement
	}
	t.dropped.Add(1)
}

// HotEntry is one resident id and its approximate count.
type HotEntry struct {
	ID    uint64 `json:"id"`
	Count uint64 `json:"count"`
}

// Snapshot returns the resident entries sorted by descending count.
// It allocates; snapshots are for the read side.
func (t *HotTable) Snapshot() []HotEntry {
	out := make([]HotEntry, 0, hotSlots)
	for i := range t.slots {
		s := &t.slots[i]
		id := s.id.Load()
		if id == 0 {
			continue
		}
		if n := s.n.Load(); n > 0 {
			out = append(out, HotEntry{ID: id, Count: n})
		}
	}
	// Insertion sort: at most hotSlots entries.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Count > out[j-1].Count; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Dropped returns the number of records that fell to the decay path —
// the mass the fixed table could not attribute.
func (t *HotTable) Dropped() uint64 {
	return t.dropped.Load()
}

// Reset empties the table. Like Histogram.Reset it is an operator
// action: records racing the reset may survive partially.
func (t *HotTable) Reset() {
	for i := range t.slots {
		t.slots[i].n.Store(0)
		t.slots[i].id.Store(0)
	}
	t.dropped.Store(0)
}
