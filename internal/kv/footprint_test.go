package kv

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestEntryFootprint pins what a bytes key costs. The entry is exactly
// one 64-byte cache line with its transactional word inside it, and a
// loaded store holds, per key, its share of the slot table, the entry,
// the box and the value — and nothing else. A field added to entry or to
// stm's varBase moves the entry to the 80-byte size class and fails both
// halves.
func TestEntryFootprint(t *testing.T) {
	var e entry
	if sz := unsafe.Sizeof(e); sz != 64 {
		t.Errorf("entry is %d bytes, want 64 (one cache line, one size class)", sz)
	}
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}

	// Per key, on 16 shards of 6,250 keys in tables of 32,768 slots:
	// 42 B of slots, 64 B of entry, 24 B of box, 128 B of value = 258 B,
	// and 260 measured with the store's fixed parts. (292 measured with
	// the word in a 48-byte object of its own, 16 of them its name,
	// behind a 48-byte entry.)
	const (
		n       = 100_000
		valLen  = 128
		wantMax = 260 + 8
	)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%08d", i)
	}
	val := make([]byte, valLen)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := New(WithShards(16))
	s.EnsureKeys(keys...)
	for _, k := range keys {
		if err := s.Set(k, val); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(heap()-before) / n
	runtime.KeepAlive(s)
	runtime.KeepAlive(keys)
	t.Logf("%d keys of %d-byte values: %d heap bytes a key", n, valLen, grew)
	if grew > wantMax {
		t.Errorf("a key costs %d heap bytes, want <= %d", grew, wantMax)
	}
}
