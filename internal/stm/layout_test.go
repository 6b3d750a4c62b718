package stm

import (
	"testing"
	"unsafe"
)

// TestSTMHotFieldLayout pins the band-2 isolation documented in the STM
// structlayout comment: every write-hot word sits at least a cache line
// away from its neighbors, so a store to one never invalidates
// another's line. An accidental field reorder fails here instead of in
// a 16-core benchmark several PRs later.
func TestSTMHotFieldLayout(t *testing.T) {
	var s STM
	const line = 64
	hot := []struct {
		name string
		off  uintptr
	}{
		{"clock", unsafe.Offsetof(s.clock)},
		{"txSeq", unsafe.Offsetof(s.txSeq)},
		{"nextVarID", unsafe.Offsetof(s.nextVarID)},
		{"stats (band 3 start)", unsafe.Offsetof(s.stats)},
	}
	for i := 1; i < len(hot); i++ {
		if gap := hot[i].off - hot[i-1].off; gap < line {
			t.Errorf("%s at %d is only %d bytes past %s at %d, want >= %d",
				hot[i].name, hot[i].off, gap, hot[i-1].name, hot[i-1].off, line)
		}
	}
	// The first hot word must not share a line with band 1's tail.
	if unsafe.Offsetof(s.clock) < line {
		t.Errorf("clock at offset %d shares a line with band 1", unsafe.Offsetof(s.clock))
	}
}

// TestWaiterTableLayout pins the notification subsystem's padding: the
// per-instance gate word (waitTable.active) owns its cache line, and
// each bucket is exactly one line so neighbors never false-share.
func TestWaiterTableLayout(t *testing.T) {
	var wt waitTable
	if off := unsafe.Offsetof(wt.buckets); off < 64 {
		t.Errorf("buckets at offset %d share the gate word's line", off)
	}
	if sz := unsafe.Sizeof(waitBucket{}); sz != 64 {
		t.Errorf("waitBucket size = %d, want exactly one 64-byte line", sz)
	}
	// Stats groups: the conflict-path group must not share a line with
	// the commit-path group, nor the park group with the conflict group.
	var st Stats
	if gap := unsafe.Offsetof(st.Conflicts) - unsafe.Offsetof(st.Commits); gap < 64 {
		t.Errorf("Conflicts only %d bytes past Commits, want >= 64", gap)
	}
	if gap := unsafe.Offsetof(st.Waits) - unsafe.Offsetof(st.Conflicts); gap < 64 {
		t.Errorf("Waits only %d bytes past Conflicts, want >= 64", gap)
	}
}

// TestTxSize is a ratchet on the pooled per-attempt handle: every
// transaction resets and carries a Tx, so a field added to it must pay
// for itself. Lower the ceiling when the struct shrinks; never raise it
// without a measured reason.
func TestTxSize(t *testing.T) {
	const ceiling = 248
	if sz := unsafe.Sizeof(Tx{}); sz > ceiling {
		t.Errorf("unsafe.Sizeof(Tx{}) = %d bytes, want <= %d", sz, ceiling)
	}
}
