package kv

import (
	"fmt"
	"runtime"
	"testing"

	"modtx/internal/stm"
)

// Allocation guards for the serving hot paths. The contract after the
// zero-allocation rework: the plain fast path and the transactional
// Get/CounterAdd steady states allocate nothing on any engine; Set pays
// exactly its two inherent allocations (the defensive value copy and
// the typed lane's box). AllocsPerRun truncates toward zero over 100
// runs, absorbing a rare GC-emptied pool refill without masking a real
// per-op allocation.

func allocStore(t *testing.T, e stm.Engine) *Store {
	t.Helper()
	s := New(WithShards(8), WithEngine(e))
	if err := s.Set("bytes-key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("ctr-key", 5); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAllocsFastPaths: the lock-free plain reads allocate nothing
// (bytes values are returned as the stored box; the int64 lane has no
// formatting at all).
func TestAllocsFastPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := allocStore(t, e)
			if avg := testing.AllocsPerRun(100, func() {
				if _, ok := s.FastGet("bytes-key"); !ok {
					t.Fatal("missing key")
				}
			}); avg != 0 {
				t.Errorf("FastGet: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, ok := s.FastCounterGet("ctr-key"); !ok {
					t.Fatal("missing counter")
				}
			}); avg != 0 {
				t.Errorf("FastCounterGet: %v allocs/op, want 0", avg)
			}
		})
	}
}

// TestAllocsGet: the transactional read-only Get of a bytes key is
// allocation-free steady state (the returned slice is the stored box).
func TestAllocsGet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := allocStore(t, e)
			for i := 0; i < 32; i++ { // warm the op and Tx pools
				if _, ok, err := s.Get("bytes-key"); err != nil || !ok {
					t.Fatal("missing key")
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, ok, err := s.Get("bytes-key"); err != nil || !ok {
					t.Fatal("missing key")
				}
			})
			if avg != 0 {
				t.Errorf("Get: %v allocs/op, want 0", avg)
			}
		})
	}
}

// mgetSink keeps TestAllocsMGet's reference map on the heap, where
// MGet's result lives.
var mgetSink map[string][]byte

// TestAllocsMGet: an MGet that its snapshot serves allocates only its
// result map (2 allocs/op for 8 keys; 3 when every MGet ran View, whose
// body closure was the third): the snapshot scratch is pooled and the
// values are the stored boxes. The reference builds the same map by
// hand. Global-lock always takes View's transaction and is not pinned
// here.
func TestAllocsMGet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := make([]string, 8)
	val := []byte("payload")
	for i := range keys {
		keys[i] = fmt.Sprintf("mget-%d", i)
	}
	want := testing.AllocsPerRun(100, func() {
		m := make(map[string][]byte, len(keys))
		for _, k := range keys {
			m[k] = val
		}
		mgetSink = m
	})
	for _, e := range []stm.Engine{stm.Lazy, stm.Eager} {
		t.Run(e.String(), func(t *testing.T) {
			s := allocStore(t, e)
			for _, k := range keys {
				if err := s.Set(k, val); err != nil {
					t.Fatal(err)
				}
			}
			mget := func() {
				if m, err := s.MGet(keys...); err != nil || len(m) != len(keys) {
					t.Fatalf("MGet = %d keys, %v", len(m), err)
				}
			}
			for i := 0; i < 32; i++ { // warm the op pool
				mget()
			}
			if avg := testing.AllocsPerRun(100, mget); avg != want {
				t.Errorf("MGet of %d keys: %v allocs/op, want %v (the result map's)", len(keys), avg, want)
			}
		})
	}
}

// TestAllocsCounterOps: the int64 compatibility lane — CounterAdd and
// CounterGet, counter Update and View over one shard and over two, and
// the benchmark's audit, a View over 256 counters on 16 shards and on 128
// — runs with no boxing, no formatting and no allocation. The Views run
// their bounded snapshot on lazy and eager, and their read-only
// transaction on global-lock.
func TestAllocsCounterOps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := allocStore(t, e)
			// A second counter on another shard than ctr-key's.
			home, _ := s.route("ctr-key")
			other := ""
			for i := 0; other == ""; i++ {
				k := fmt.Sprintf("ctr-%d", i)
				if sh, _ := s.route(k); sh != home {
					other = k
				}
			}
			s.EnsureCounters(other)
			oneShard, twoShards := []string{"ctr-key"}, []string{"ctr-key", other}
			accts := make([]string, 256)
			for i := range accts {
				accts[i] = fmt.Sprintf("acct-%03d", i)
			}
			s16, s128 := New(WithEngine(e)), New(WithShards(128), WithEngine(e))
			s16.EnsureCounters(accts...)
			s128.EnsureCounters(accts...)
			update := func(keys []string) func() error {
				body := func(t *Txn) error {
					for _, k := range keys {
						t.Add(k, 1)
					}
					return nil
				}
				return func() error { return s.Update(keys, body) }
			}
			view := func(s *Store, keys []string) func() error {
				body := func(t *ViewTxn) error {
					for _, k := range keys {
						if _, ok := t.Counter(k); !ok {
							return fmt.Errorf("missing counter %q", k)
						}
					}
					return nil
				}
				return func() error { return s.View(keys, body) }
			}
			for _, row := range []struct {
				name string
				run  func() error
			}{
				{"CounterAdd", func() error { _, err := s.CounterAdd("ctr-key", 1); return err }},
				{"CounterGet", func() error {
					if _, ok, err := s.CounterGet("ctr-key"); err != nil || !ok {
						return fmt.Errorf("missing counter (%v)", err)
					}
					return nil
				}},
				{"Update over 1 shard", update(oneShard)},
				{"Update over 2 shards", update(twoShards)},
				{"View over 1 shard", view(s, oneShard)},
				{"View over 2 shards", view(s, twoShards)},
				{"View over 256 keys on 16 shards", view(s16, accts)},
				{"View over 256 keys on 128 shards", view(s128, accts)},
			} {
				for i := 0; i < 32; i++ { // warm the op and Tx pools
					if err := row.run(); err != nil {
						t.Fatal(err)
					}
				}
				if avg := testing.AllocsPerRun(100, func() {
					if err := row.run(); err != nil {
						t.Fatal(err)
					}
				}); avg != 0 {
					t.Errorf("%s: %v allocs/op, want 0", row.name, avg)
				}
			}
		})
	}
}

// TestAllocsInstrumented: full observability — every call sampled, both
// clock reads taken, histograms recorded — adds zero allocations to the
// read and counter hot paths. The metrics write side is atomic adds into
// preallocated buckets plus a pooled tick; nothing escapes.
func TestAllocsInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(8), WithEngine(e), WithMetricsSampling(1))
			if err := s.Set("bytes-key", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CounterAdd("ctr-key", 5); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ { // warm the op and Tx pools
				if _, ok, err := s.Get("bytes-key"); err != nil || !ok {
					t.Fatal("missing key")
				}
				if _, err := s.CounterAdd("ctr-key", 1); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, ok, err := s.Get("bytes-key"); err != nil || !ok {
					t.Fatal("missing key")
				}
			}); avg != 0 {
				t.Errorf("instrumented Get: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, err := s.CounterAdd("ctr-key", 1); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("instrumented CounterAdd: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, ok := s.FastGet("bytes-key"); !ok {
					t.Fatal("missing key")
				}
			}); avg != 0 {
				t.Errorf("instrumented FastGet: %v allocs/op, want 0", avg)
			}
			// The guard must be exercising the instrumentation, not a
			// disabled store.
			if s.OpLatency(OpGet).Count == 0 || s.OpLatency(OpCounterAdd).Count == 0 {
				t.Fatal("sampling=1 store recorded no latencies; guard is vacuous")
			}
		})
	}
}

// TestAllocsDurabilityOff: the durability wiring costs the non-durable
// hot paths nothing but one atomic load — Get and CounterAdd stay at
// zero allocations and Set within its two inherent ones on a store
// opened without WithDurability (explicitly, through the same Open
// path a durable store takes).
func TestAllocsDurabilityOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	val := []byte("steady-state-value")
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s, err := Open(WithShards(8), WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			if s.Durable() || s.tapOn.Load() {
				t.Fatal("store unexpectedly durable or tapped")
			}
			if err := s.Set("bytes-key", val); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ { // warm the op and Tx pools
				if _, ok, er := s.Get("bytes-key"); er != nil || !ok {
					t.Fatal("missing key")
				}
				if _, er := s.CounterAdd("ctr-key", 1); er != nil {
					t.Fatal(er)
				}
				if er := s.Set("bytes-key", val); er != nil {
					t.Fatal(er)
				}
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, ok, er := s.Get("bytes-key"); er != nil || !ok {
					t.Fatal("missing key")
				}
			}); avg != 0 {
				t.Errorf("Get with durability off: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, er := s.CounterAdd("ctr-key", 1); er != nil {
					t.Fatal(er)
				}
			}); avg != 0 {
				t.Errorf("CounterAdd with durability off: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if er := s.Set("bytes-key", val); er != nil {
					t.Fatal(er)
				}
			}); avg > 2 {
				t.Errorf("Set with durability off: %v allocs/op, want <= 2 (copy + box)", avg)
			}
		})
	}
}

// TestAllocsSetBounded: Set's only remaining allocations are inherent to
// its semantics — the defensive copy of the incoming value and the
// typed lane's immutable box. Anything above two means plumbing
// regressed.
func TestAllocsSetBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	val := []byte("steady-state-value")
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := allocStore(t, e)
			for i := 0; i < 32; i++ {
				if err := s.Set("bytes-key", val); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := s.Set("bytes-key", val); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 2 {
				t.Errorf("Set: %v allocs/op, want <= 2 (copy + box)", avg)
			}
		})
	}
}

// TestAllocsKeyCreation: creating or deleting a key costs the same
// whatever the table holds — a clock-free guard on the O(1) link. A
// table that is copied per key allocates the whole table again for every
// key (≈ 1.3 GB over these 8,192 creations on one shard); the slot table
// allocates the key's own few objects plus its share of the doublings
// (≈ 200 bytes a creation, ≈ 65 a deletion).
func TestAllocsKeyCreation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 8192
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fresh:%05d", i)
	}
	val := []byte("v")
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	s := New(WithShards(1))
	if per := allocated(func() {
		for _, k := range keys {
			if err := s.Set(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}) / n; per >= 1024 {
		t.Errorf("a first Set allocates %d bytes a key over %d keys on one shard, want < 1024", per, n)
	}
	if per := allocated(func() {
		for _, k := range keys {
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}) / n; per >= 1024 {
		t.Errorf("a Delete allocates %d bytes a key over %d keys on one shard, want < 1024", per, n)
	}

	// The same count of allocations at 1,000 and at 100,000 resident keys.
	firstSet := func(resident int) float64 {
		s := New(WithShards(1))
		names := make([]string, resident)
		for i := range names {
			names[i] = fmt.Sprintf("resident:%06d", i)
		}
		s.EnsureKeys(names...)
		i := 0
		return testing.AllocsPerRun(100, func() {
			if err := s.Set(keys[i], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := firstSet(1000), firstSet(100_000)
	if small != large {
		t.Errorf("a first Set allocates %v times beside 1,000 keys and %v beside 100,000", small, large)
	}
	// The entry (its word inside it), the value copy and the box: no
	// variable of its own, no box made for the entry's birth and dropped.
	if small != 3 {
		t.Errorf("a first Set allocates %v objects, want 3", small)
	}
}

// TestAllocsHotKeys: resolving the contention table's few ids to key
// names costs the same beside 1,000 keys and beside 100,000 — the scan
// keeps a name only for an id the snapshot holds — and names them as a
// map of every key did: keys of both kinds, and the three sentinels.
func TestAllocsHotKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	hotKeys := func(resident int) (float64, []HotKey) {
		s := New(WithShards(1))
		names := make([]string, resident)
		for i := range names {
			names[i] = fmt.Sprintf("resident:%06d", i)
		}
		s.EnsureKeys(names...)
		s.EnsureCounters("hot-counter", "doomed")
		sh := s.shards[0]
		rec := sh.stm.Metrics().Contention.Record
		for _, k := range []string{names[0], names[resident/2], "hot-counter", "doomed"} {
			rec(sh.lookup(k, fnv1a(k)).varID())
		}
		rec(sh.kvers.ID())
		rec(sh.pub.ID())
		if _, err := s.Delete("doomed"); err != nil {
			t.Fatal(err)
		}
		var out []HotKey
		return testing.AllocsPerRun(10, func() { out = s.HotKeys(0) }), out
	}
	small, got := hotKeys(1000)
	large, _ := hotKeys(100_000)
	if small != large {
		t.Errorf("HotKeys allocates %v times beside 1,000 keys and %v beside 100,000", small, large)
	}
	want := []string{"(keyspace)", "(publication)", "(swept)", "hot-counter", "resident:000000", "resident:000500"}
	if len(got) != len(want) {
		t.Fatalf("HotKeys = %+v, want the keys %q", got, want)
	}
	for i, hk := range got { // equal counts sort by key
		if hk.Key != want[i] || hk.Count != 1 {
			t.Errorf("HotKeys[%d] = %+v, want %q once", i, hk, want[i])
		}
	}
}
