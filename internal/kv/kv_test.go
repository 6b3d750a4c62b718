package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"modtx/internal/stm"
)

// kvEngines is every registered engine: the store-level suite runs
// against each, so a new engine cannot merge without passing it.
var kvEngines = stm.Engines()

func TestShardRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16}, {33, 64},
	} {
		if got := New(WithShards(tc.in)).NumShards(); got != tc.want {
			t.Errorf("Shards=%d: got %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShardRouting(t *testing.T) {
	s := New(WithShards(16))
	hit := make([]int, s.NumShards())
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		i1 := s.ShardOf(k)
		i2 := s.ShardOf(k)
		if i1 != i2 {
			t.Fatalf("routing is not deterministic: %d vs %d", i1, i2)
		}
		if i1 < 0 || i1 >= s.NumShards() {
			t.Fatalf("shard %d out of range", i1)
		}
		hit[i1]++
	}
	// FNV-1a should spread 10k keys so every one of 16 shards gets a
	// reasonable share (binomial mean 625; tolerate wide slack).
	for i, n := range hit {
		if n < 300 || n > 1000 {
			t.Errorf("shard %d got %d of 10000 keys: suspicious skew", i, n)
		}
	}
	// A key's route must agree with where operations land.
	s2 := New(WithShards(4))
	if err := s2.Set("alpha", []byte("7")); err != nil {
		t.Fatal(err)
	}
	sh, h := s2.route("alpha")
	if sh.index != s2.ShardOf("alpha") || sh.lookup("alpha", h) == nil {
		t.Fatal("Set stored the key on a different shard than ShardOf reports")
	}
}

func TestBasicOps(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if _, ok, _ := s.Get("missing"); ok {
				t.Fatal("Get of missing key reported present")
			}
			if _, ok := s.FastGet("missing"); ok {
				t.Fatal("FastGet of missing key reported present")
			}
			if err := s.Set("a", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := s.Get("a"); err != nil || !ok || string(v) != "hello world" {
				t.Fatalf("Get(a)=%q,%v,%v", v, ok, err)
			}
			if v, ok := s.FastGet("a"); !ok || string(v) != "hello world" {
				t.Fatalf("FastGet(a)=%q,%v", v, ok)
			}
			// Arbitrary binary round-trips, including NUL and high bytes.
			blob := []byte{0, 1, 2, 255, 254, 'x', 0}
			if err := s.Set("blob", blob); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := s.Get("blob"); !bytes.Equal(v, blob) {
				t.Fatalf("binary value mangled: %v", v)
			}
			// The store copies on ingest: mutating the caller's buffer
			// after Set must not change the stored value.
			buf := []byte("mutable")
			if err := s.Set("m", buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			if v, _, _ := s.Get("m"); string(v) != "mutable" {
				t.Fatalf("stored value aliased the caller's buffer: %q", v)
			}
			// Counter lane on the int64 specialization.
			if v, err := s.CounterAdd("ctr", 5); err != nil || v != 5 {
				t.Fatalf("CounterAdd(ctr,5)=%d,%v", v, err)
			}
			if v, err := s.CounterAdd("ctr", -2); err != nil || v != 3 {
				t.Fatalf("CounterAdd(ctr,-2)=%d,%v", v, err)
			}
			if v, ok := s.FastCounterGet("ctr"); !ok || v != 3 {
				t.Fatalf("FastCounterGet(ctr)=%d,%v", v, ok)
			}
			if v, ok, err := s.CounterGet("ctr"); err != nil || !ok || v != 3 {
				t.Fatalf("CounterGet(ctr)=%d,%v,%v", v, ok, err)
			}
			// Reads surface counters as decimal bytes.
			if v, ok, _ := s.Get("ctr"); !ok || string(v) != "3" {
				t.Fatalf("Get(ctr)=%q,%v, want \"3\"", v, ok)
			}
			if v, ok := s.FastGet("ctr"); !ok || string(v) != "3" {
				t.Fatalf("FastGet(ctr)=%q,%v", v, ok)
			}
			if err := s.MSet(map[string][]byte{"x": []byte("10"), "y": []byte("two words"), "z": nil}); err != nil {
				t.Fatal(err)
			}
			got, err := s.MGet("x", "y", "z", "missing")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 || string(got["x"]) != "10" || string(got["y"]) != "two words" {
				t.Fatalf("MGet=%v", got)
			}
			if n := s.Len(); n != 7 {
				t.Fatalf("Len=%d, want 7", n)
			}
			st := s.Stats()
			if st.Commits == 0 || st.FastGets == 0 || st.Keys != 7 {
				t.Fatalf("stats not plumbed: %v", st)
			}
		})
	}
}

func TestWrongTypeErrors(t *testing.T) {
	s := New(WithShards(4))
	if err := s.Set("str", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("str", 1); !errors.Is(err, ErrWrongType) {
		t.Fatalf("CounterAdd on bytes key: err=%v, want ErrWrongType", err)
	}
	if _, _, err := s.CounterGet("str"); !errors.Is(err, ErrWrongType) {
		t.Fatalf("CounterGet on bytes key: err=%v", err)
	}
	if _, err := s.CounterAdd("n", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("n", []byte("v")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Set on counter key: err=%v, want ErrWrongType", err)
	}
	if _, err := s.Privatize("fresh1", "n"); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Privatize on counter key: err=%v", err)
	}
	if err := s.Publish(map[string][]byte{"fresh2": []byte("v"), "n": []byte("v")}); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Publish on counter key: err=%v", err)
	}
	// The failed calls must not leave phantom keys behind.
	for _, k := range []string{"fresh1", "fresh2"} {
		if _, ok, _ := s.Get(k); ok {
			t.Fatalf("failed Privatize/Publish created phantom key %q", k)
		}
	}
	if _, ok := s.FastCounterGet("str"); ok {
		t.Fatal("FastCounterGet on bytes key reported ok")
	}
	// Inside transactions the mismatch aborts with no partial effects.
	err := s.Update([]string{"str", "n"}, func(t *Txn) error {
		t.Add("str", 1)
		return nil
	})
	if !errors.Is(err, ErrWrongType) {
		t.Fatalf("Txn.Add on bytes key: err=%v", err)
	}
	if v, _, _ := s.Get("str"); string(v) != "v" {
		t.Fatalf("failed txn left effects: %q", v)
	}
	err = s.Update([]string{"str", "n"}, func(t *Txn) error {
		t.Set("n", []byte("x"))
		return nil
	})
	if !errors.Is(err, ErrWrongType) {
		t.Fatalf("Txn.Set on counter key: err=%v", err)
	}
}

func TestUpdateFootprint(t *testing.T) {
	s := New(WithShards(8))
	s.EnsureKeys("in")
	// Find a key routed to a different shard than "in".
	other := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if s.ShardOf(k) != s.ShardOf("in") {
			other = k
			break
		}
	}
	err := s.Update([]string{"in"}, func(t *Txn) error {
		t.Set(other, []byte("1"))
		return nil
	})
	if err == nil {
		t.Fatal("out-of-footprint write did not error")
	}
	if _, ok, _ := s.Get(other); ok {
		t.Fatal("out-of-footprint write took effect")
	}
	// Undeclared keys on declared shards are fine.
	same := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if k != "in" && s.ShardOf(k) == s.ShardOf("in") {
			same = k
			break
		}
	}
	if err := s.Update([]string{"in"}, func(t *Txn) error {
		t.Set(same, []byte("42"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get(same); !ok || string(v) != "42" {
		t.Fatalf("same-shard undeclared write lost: %q,%v", v, ok)
	}
}

func TestEnsureKeysBulk(t *testing.T) {
	s := New(WithShards(4))
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	s.EnsureKeys(keys...)
	if n := s.Len(); n != 500 {
		t.Fatalf("Len=%d, want 500", n)
	}
	s.EnsureKeys(keys...) // idempotent
	if n := s.Len(); n != 500 {
		t.Fatalf("Len after re-ensure=%d, want 500", n)
	}
	for _, k := range keys {
		if _, ok := s.FastGet(k); !ok {
			t.Fatalf("key %s missing after EnsureKeys", k)
		}
	}
	ctrs := []string{"c1", "c2", "c3"}
	s.EnsureCounters(ctrs...)
	for _, k := range ctrs {
		if v, ok := s.FastCounterGet(k); !ok || v != 0 {
			t.Fatalf("counter %s: %d,%v", k, v, ok)
		}
	}
}

// TestFastGetQuiesceConsistency forces the §3.5 delayed-writeback anomaly
// on the lazy engine and shows that (a) the plain fast path can miss a
// logically committed value, and (b) Privatize's quiescence fence restores
// agreement between FastGet and the transactional state.
func TestFastGetQuiesceConsistency(t *testing.T) {
	s := New(WithShards(1), WithEngine(stm.Lazy))
	s.EnsureKeys("x")
	inst := s.ShardSTM(0)

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	inst.WritebackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { inst.WritebackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Set("x", []byte("committed")); err != nil {
			t.Errorf("Set: %v", err)
		}
	}()
	<-inWindow
	// The writer has validated (logically committed) but not written back:
	// the plain fast path still sees the old value. This is the anomaly,
	// not a bug — the model admits it for unfenced mixed access.
	if v, _ := s.FastGet("x"); v != nil {
		t.Fatalf("expected stale fast read inside the writeback window, got %q", v)
	}
	go func() { close(resume) }()
	// Privatize fences: after it returns, the writer has drained and the
	// plain path must agree with the transactional state.
	vars, err := s.Privatize("x")
	if err != nil {
		t.Fatal(err)
	}
	if v := vars[0].Load(); string(v) != "committed" {
		t.Fatalf("after Privatize fence: handle reads %q, want committed", v)
	}
	if v, _ := s.FastGet("x"); string(v) != "committed" {
		t.Fatalf("after Privatize fence: FastGet=%q, want committed", v)
	}
	<-done
	if st := s.Stats(); st.Quiesces == 0 {
		t.Fatalf("quiesce counter not plumbed: %v", st)
	}
}

func TestPublish(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.Publish(map[string][]byte{"p": []byte("nine"), "q": []byte("8")}); err != nil {
				t.Fatal(err)
			}
			// A transaction starting after Publish observes the values.
			got, err := s.MGet("p", "q")
			if err != nil {
				t.Fatal(err)
			}
			if string(got["p"]) != "nine" || string(got["q"]) != "8" {
				t.Fatalf("published values not visible transactionally: %v", got)
			}
		})
	}
}

// TestFastGetCountersPerShard checks the satellite change: fast-path
// counts are accumulated per shard (padded) and aggregated in Stats.
func TestFastGetCountersPerShard(t *testing.T) {
	s := New(WithShards(4))
	s.EnsureKeys("a", "b", "c", "d", "e")
	for i := 0; i < 10; i++ {
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			s.FastGet(k)
		}
	}
	if got := s.Stats().FastGets; got != 50 {
		t.Fatalf("aggregated FastGets=%d, want 50", got)
	}
	var perShard uint64
	for i := range s.fastGets {
		perShard += s.fastGets[i].n.Load()
	}
	if perShard != 50 {
		t.Fatalf("per-shard counters sum to %d, want 50", perShard)
	}
}

// TestUpdateCtx covers the context plumbing end to end at the store
// level: a canceled context surfaces stm.ErrCanceled with no effects.
func TestUpdateCtx(t *testing.T) {
	s := New(WithShards(4))
	s.EnsureCounters("a", "b")
	// Block shard commits forever by corrupting a var is internal to stm;
	// at the kv level it suffices to check the pre-canceled path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.UpdateCtx(ctx, []string{"a", "b"}, func(t *Txn) error {
		t.Add("a", 1)
		t.Add("b", 1)
		return nil
	})
	if !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("err=%v, want stm.ErrCanceled", err)
	}
	if v, _ := s.FastCounterGet("a"); v != 0 {
		t.Fatalf("canceled update leaked: a=%d", v)
	}
}
