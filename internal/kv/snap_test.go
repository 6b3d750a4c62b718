package kv

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"modtx/internal/stm"
)

// Get, CounterGet and MGet read lock words instead of running a
// transaction where the engine allows it (see stm.Snap). These tests
// hold a writer at the point where a word-only read could go wrong —
// one per engine, gated on channels, no sleeps — and check that the
// reads wait it out and never return what was not committed.

// hold stops the first call of a hook that is armed, until released.
type hold struct {
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func newHold() *hold {
	h := &hold{held: make(chan struct{}), release: make(chan struct{})}
	h.armed.Store(true)
	return h
}

func (h *hold) hook() {
	if h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
}

// readAll runs Get, CounterGet and MGet on their own goroutines and
// returns where their results arrive, one formatted line each.
func readAll(s *Store, key, ctr string, more ...string) <-chan string {
	got := make(chan string, 3)
	go func() {
		v, ok, err := s.Get(key)
		got <- fmt.Sprintf("Get %s %v %v", v, ok, err)
	}()
	go func() {
		n, ok, err := s.CounterGet(ctr)
		got <- fmt.Sprintf("CounterGet %d %v %v", n, ok, err)
	}()
	go func() {
		m, err := s.MGet(append([]string{key, ctr}, more...)...)
		got <- fmt.Sprintf("MGet %q %v", m, err)
	}()
	return got
}

// waitHeld yields until reached reports true, failing the test if a
// read returns first: beside a held writer, none may.
func waitHeld(t *testing.T, got <-chan string, reached func() bool) {
	t.Helper()
	for {
		select {
		case r := <-got:
			t.Fatalf("%s: returned while the writer was held", r)
		default:
		}
		if reached() {
			return
		}
		runtime.Gosched()
	}
}

// TestReadsBesideEagerRollback: an eager Update writes a bytes key and a
// counter in place and fails; its rollback is held open, with the
// speculative values in place. Get, CounterGet and MGet find the words
// locked, wait, and return the values from before the Update.
func TestReadsBesideEagerRollback(t *testing.T) {
	s := New(WithShards(4), WithEngine(stm.Eager))
	key, far := twoShardNames(t, s, "spec")
	ctr := sameShardName(s, key, "specctr")
	if err := s.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(far, []byte("far")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd(ctr, 1); err != nil {
		t.Fatal(err)
	}
	h := newHold()
	s.ShardSTM(s.ShardOf(key)).RollbackDelay = h.hook
	errAbort := errors.New("abort")
	upd := make(chan error, 1)
	go func() {
		upd <- s.Update([]string{key, ctr}, func(t *Txn) error {
			t.Set(key, []byte("spec"))
			t.CounterSet(ctr, 99)
			return errAbort
		})
	}()
	<-h.held
	// The hold is real: plain reads see the speculative values (§3.4).
	if v, _ := s.FastGet(key); string(v) != "spec" {
		t.Fatalf("FastGet inside the rollback = %q, want the speculative value", v)
	}
	if n, _ := s.FastCounterGet(ctr); n != 99 {
		t.Fatalf("FastCounterGet inside the rollback = %d, want 99", n)
	}
	base := s.Stats().Conflicts
	got := readAll(s, key, ctr, far)
	waitHeld(t, got, func() bool { return s.Stats().Conflicts >= base+3 })
	close(h.release)
	if err := <-upd; !errors.Is(err, errAbort) {
		t.Fatalf("Update = %v, want the body's error", err)
	}
	want := map[string]bool{
		"Get old true <nil>":      true,
		"CounterGet 1 true <nil>": true,
		fmt.Sprintf("MGet %q <nil>", map[string][]byte{key: []byte("old"), ctr: []byte("1"), far: []byte("far")}): true,
	}
	for range 3 {
		if r := <-got; !want[r] {
			t.Errorf("%s: want the values from before the Update", r)
		}
	}
}

// TestMGetBesideTwoShardTransfer: a lazy transfer between counters on
// two shards is held in the second shard's writeback, the first shard
// already published. MGet of both does not return until the hold is
// released, and then returns the conserved sum, never half a transfer.
func TestMGetBesideTwoShardTransfer(t *testing.T) {
	s := New(WithShards(4), WithEngine(stm.Lazy))
	a, b := twoShardNames(t, s, "acct")
	if s.ShardOf(a) > s.ShardOf(b) {
		a, b = b, a // a's shard publishes first
	}
	if _, err := s.CounterAdd(a, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd(b, 0); err != nil {
		t.Fatal(err)
	}
	h := newHold()
	second := s.ShardSTM(s.ShardOf(b))
	second.WritebackDelay = h.hook
	upd := make(chan error, 1)
	go func() {
		upd <- s.Update([]string{a, b}, func(t *Txn) error {
			t.Add(a, -10)
			t.Add(b, 10)
			return nil
		})
	}()
	<-h.held
	if x, _ := s.FastCounterGet(a); x != 90 {
		t.Fatalf("first shard not yet published: %s = %d, want 90", a, x)
	}
	if y, _ := s.FastCounterGet(b); y != 0 {
		t.Fatalf("second shard already published: %s = %d, want 0", b, y)
	}
	base := second.Snapshot().Conflicts
	got := make(chan string, 1)
	go func() {
		m, err := s.MGet(a, b)
		got <- fmt.Sprintf("%q %v", m, err)
	}()
	// The snapshot's conflict and at least one of the transaction's.
	waitHeld(t, got, func() bool { return second.Snapshot().Conflicts >= base+2 })
	close(h.release)
	if err := <-upd; err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q <nil>", map[string][]byte{a: []byte("90"), b: []byte("10")})
	if r := <-got; r != want {
		t.Fatalf("MGet = %s, want %s", r, want)
	}
}

// TestReadsOnGlobalLockMatchTransactions: global-lock writes in place
// under a locked word, so Get, CounterGet and MGet read it as they read
// the other engines. They return what View returns, count no conflict
// on a quiet store, and wait out a writer held mid-body.
func TestReadsOnGlobalLockMatchTransactions(t *testing.T) {
	s := New(WithShards(4), WithEngine(stm.GlobalLock))
	if err := s.Set("bytes", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("ctr", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	keys := []string{"bytes", "ctr", "gone", "never"}
	viewed := map[string][]byte{}
	if err := s.View(keys, func(t *ViewTxn) error {
		for _, k := range keys {
			if v, ok := t.Get(k); ok {
				viewed[k] = v
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, ok, err := s.Get(k)
		if err != nil || string(v) != string(viewed[k]) || ok != (viewed[k] != nil) {
			t.Errorf("Get(%s) = %q %v %v, View read %q", k, v, ok, err, viewed[k])
		}
	}
	if n, ok, err := s.CounterGet("ctr"); n != 7 || !ok || err != nil {
		t.Errorf("CounterGet(ctr) = %d %v %v, want 7 true <nil>", n, ok, err)
	}
	if _, _, err := s.CounterGet("bytes"); !errors.Is(err, ErrWrongType) {
		t.Errorf("CounterGet(bytes) = %v, want ErrWrongType", err)
	}
	m, err := s.MGet(keys...)
	if err != nil || fmt.Sprintf("%q", m) != fmt.Sprintf("%q", viewed) {
		t.Errorf("MGet = %q %v, View read %q", m, err, viewed)
	}
	if c := s.Stats().Conflicts; c != 0 {
		t.Errorf("%d conflicts on a quiet global-lock store, want 0", c)
	}

	// A writer stopped mid-body with its value in place.
	g := newGate()
	errAbort := errors.New("abort")
	upd := make(chan error, 1)
	go func() {
		upd <- s.Update([]string{"bytes", "ctr"}, func(t *Txn) error {
			t.Set("bytes", []byte("spec"))
			t.CounterSet("ctr", 99)
			g.pass()
			return errAbort
		})
	}()
	<-g.entered
	if v, _ := s.FastGet("bytes"); string(v) != "spec" {
		t.Fatalf("FastGet beside the stopped writer = %q, want its in-place value", v)
	}
	got := readAll(s, "bytes", "ctr")
	yields := 0
	waitHeld(t, got, func() bool { yields++; return yields > 100 })
	close(g.open)
	if err := <-upd; !errors.Is(err, errAbort) {
		t.Fatalf("Update = %v, want the body's error", err)
	}
	want := map[string]bool{
		"Get v true <nil>":                      true,
		"CounterGet 7 true <nil>":               true,
		`MGet map["bytes":"v" "ctr":"7"] <nil>`: true,
	}
	for range 3 {
		if r := <-got; !want[r] {
			t.Errorf("%s: want the values from before the writer", r)
		}
	}
}

// TestReadAccounting: on lazy, a Get that hits counts exactly one
// read-only commit and no conflict; a Get that finds the word held by a
// commit counts a conflict on the key, which HotKeys names; an 8-key
// MGet over k shards counts k read-only commits, and k multi-instance
// commits when k ≥ 2.
func TestReadAccounting(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	if err := s.Set("hit", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if _, ok, err := s.Get("hit"); !ok || err != nil {
		t.Fatalf("Get(hit) = %v %v", ok, err)
	}
	after := s.Stats()
	if d := after.ReadOnlyCommits - before.ReadOnlyCommits; d != 1 {
		t.Errorf("hit Get: %d read-only commits, want 1", d)
	}
	if d := after.Conflicts - before.Conflicts; d != 0 {
		t.Errorf("hit Get: %d conflicts, want 0", d)
	}

	if err := s.Set("hot", []byte("v")); err != nil {
		t.Fatal(err)
	}
	h := newHold()
	s.ShardSTM(s.ShardOf("hot")).WritebackDelay = h.hook
	set := make(chan error, 1)
	go func() { set <- s.Set("hot", []byte("w")) }()
	<-h.held
	base := s.Stats().Conflicts
	get := make(chan string, 1)
	go func() {
		v, _, err := s.Get("hot")
		get <- fmt.Sprintf("%s %v", v, err)
	}()
	waitHeld(t, get, func() bool { return s.Stats().Conflicts >= base+1 })
	close(h.release)
	if err := <-set; err != nil {
		t.Fatal(err)
	}
	if r := <-get; r != "w <nil>" {
		t.Errorf("Get(hot) = %s, want the held Set's value", r)
	}
	if hot := s.HotKeys(1); len(hot) != 1 || hot[0].Key != "hot" {
		t.Errorf("HotKeys(1) = %+v, want hot", hot)
	}

	spread := make([]string, 8)
	for i := range spread {
		spread[i] = fmt.Sprintf("spread-%d", i)
	}
	one := make([]string, 8)
	for i := range one {
		one[i] = sameShardName(s, "hit", fmt.Sprintf("one%d", i))
	}
	for _, keys := range [][]string{spread, one} {
		shards := map[int]bool{}
		for _, k := range keys {
			shards[s.ShardOf(k)] = true
			if err := s.Set(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		k := uint64(len(shards))
		before := s.Stats()
		m, err := s.MGet(keys...)
		if err != nil || len(m) != len(keys) {
			t.Fatalf("MGet = %d keys, %v", len(m), err)
		}
		after := s.Stats()
		multi := k
		if k < 2 {
			multi = 0
		}
		if d := after.ReadOnlyCommits - before.ReadOnlyCommits; d != k {
			t.Errorf("MGet over %d shards: %d read-only commits, want %d", k, d, k)
		}
		if d := after.MultiCommits - before.MultiCommits; d != multi {
			t.Errorf("MGet over %d shards: %d multi-instance commits, want %d", k, d, multi)
		}
	}
}
