package stm

import (
	"fmt"
	"testing"
	"time"
)

// The zero-allocation contract of the hot path: once the pooled Tx has
// grown its attempt-state slices, steady-state transactions allocate
// nothing — on every engine, for every entry point, over one instance or
// two. testing.AllocsPerRun truncates toward zero over 100 runs, so a
// rare GC-emptied pool refill does not flake the guard while a real
// per-op allocation (1/op = 100 over the window) fails it.

// allocInput is one entry point driven by an allocation guard.
type allocInput struct {
	name string
	run  func() error
}

// checkAllocs warms each input's pooled capacity, then requires it to
// run without allocating.
func checkAllocs(t *testing.T, inputs []allocInput) {
	t.Helper()
	for _, in := range inputs {
		for i := 0; i < 32; i++ { // grow the pooled capacity
			if err := in.run(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := in.run(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", in.name, avg)
		}
	}
}

// TestAllocsAtomicallySingleVar: the steady-state single-var
// read-modify-write transaction performs no heap allocation, through
// Atomically and through AtomicallyMulti over one instance and over two
// (one var on each).
func TestAllocsAtomicallySingleVar(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s, s2 := New(WithEngine(e)), New(WithEngine(e))
			vars := []*Var{s.NewVar("v", 0), s2.NewVar("v2", 0)}
			body := func(tx *Tx) error {
				tx.Write(vars[0], tx.Read(vars[0])+1)
				return nil
			}
			multi := func(txs []*Tx) error {
				for i, tx := range txs {
					tx.Write(vars[i], tx.Read(vars[i])+1)
				}
				return nil
			}
			one, two := []*STM{s}, []*STM{s, s2}
			checkAllocs(t, []allocInput{
				{"Atomically single-var", func() error { return s.Atomically(body) }},
				{"AtomicallyMulti over 1 instance", func() error { return AtomicallyMulti(one, multi) }},
				{"AtomicallyMulti over 2 instances", func() error { return AtomicallyMulti(two, multi) }},
			})
		})
	}
}

// TestAllocsAtomicallyRead: the steady-state read-only body (a 4-var
// snapshot sum) performs no heap allocation, snapshot included, on
// every engine — through AtomicallyRead
// and through AtomicallyReadMulti over one instance and over two (four
// vars on each).
func TestAllocsAtomicallyRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s, s2 := New(WithEngine(e)), New(WithEngine(e))
			vars := [2][]*Var{make([]*Var, 4), make([]*Var, 4)}
			for i := range vars[0] {
				vars[0][i] = s.NewVar(fmt.Sprintf("v%d", i), int64(i))
				vars[1][i] = s2.NewVar(fmt.Sprintf("w%d", i), int64(i))
			}
			var sink int64
			body := func(r *ReadTx) error {
				var sum int64
				for _, v := range vars[0] {
					sum += r.Read(v)
				}
				sink = sum
				return nil
			}
			multi := func(rtxs []*ReadTx) error {
				var sum int64
				for i, r := range rtxs {
					for _, v := range vars[i] {
						sum += r.Read(v)
					}
				}
				sink = sum
				return nil
			}
			one, two := []*STM{s}, []*STM{s, s2}
			checkAllocs(t, []allocInput{
				{"AtomicallyRead", func() error { return s.AtomicallyRead(body) }},
				{"AtomicallyReadMulti over 1 instance", func() error { return AtomicallyReadMulti(one, multi) }},
				{"AtomicallyReadMulti over 2 instances", func() error { return AtomicallyReadMulti(two, multi) }},
			})
			_ = sink
		})
	}
}

// TestAllocsMixedModeLoadStore: plain Load/Store never allocated; pin it
// so the mixed-mode lane stays at native atomic cost.
func TestAllocsMixedModeLoadStore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New()
	v := s.NewVar("v", 1)
	var sink int64
	avg := testing.AllocsPerRun(100, func() {
		v.Store(sink)
		sink += v.Load()
	})
	if avg != 0 {
		t.Errorf("plain Load/Store: %v allocs/op, want 0", avg)
	}
}

// TestAllocsCommitWithParkedWaiter: the commit-notification hook keeps
// the non-blocking fast path allocation-free even when the waiter table
// is active — including the worst case, a parked waiter hashed into the
// same bucket as the committed variable (the notify scan and channel
// signal allocate nothing).
func TestAllocsCommitWithParkedWaiter(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			parkedVar := s.NewVar("parked", 0) // id 1
			var hot *Var
			for i := 0; ; i++ {
				v := s.NewVar(fmt.Sprintf("v%d", i), 0)
				if v.id != parkedVar.id && v.id%waitBuckets == parkedVar.id%waitBuckets {
					hot = v // same bucket as the parked waiter, different id
					break
				}
			}
			parked := make(chan error, 1)
			go func() {
				parked <- s.Atomically(func(tx *Tx) error {
					if tx.Read(parkedVar) == 0 {
						tx.Block()
					}
					return nil
				})
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.Snapshot().Waits == 0 {
				if time.Now().After(deadline) {
					t.Fatal("waiter never parked")
				}
				time.Sleep(time.Millisecond)
			}
			body := func(tx *Tx) error {
				tx.Write(hot, tx.Read(hot)+1)
				return nil
			}
			for i := 0; i < 32; i++ {
				if err := s.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := s.Atomically(body); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("commit with parked waiter: %v allocs/op, want 0", avg)
			}
			if err := s.Atomically(func(tx *Tx) error { tx.Write(parkedVar, 1); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := <-parked; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocsAtomicallyInstrumented: the zero-allocation contract holds
// with metrics fully on and every transaction sampled — the histogram
// write side, the sampling tick and the timestamps live on the stack or
// in fixed atomics, so observability costs time (nanoseconds), never
// garbage.
func TestAllocsAtomicallyInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithMetricsSampling(1))
			v := s.NewVar("v", 0)
			body := func(tx *Tx) error {
				tx.Write(v, tx.Read(v)+1)
				return nil
			}
			rbody := func(r *ReadTx) error {
				_ = r.Read(v)
				return nil
			}
			for i := 0; i < 32; i++ {
				if err := s.Atomically(body); err != nil {
					t.Fatal(err)
				}
				if err := s.AtomicallyRead(rbody); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(100, func() {
				if err := s.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("instrumented Atomically: %v allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(100, func() {
				if err := s.AtomicallyRead(rbody); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("instrumented AtomicallyRead: %v allocs/op, want 0", avg)
			}
			if got := s.Metrics().CommitNs.Snapshot().Count; got == 0 {
				t.Error("sampling=1 should have recorded every commit")
			}
		})
	}
}

// TestAllocsLargeWriteSetSpills sanity-checks the spill path: a
// transaction writing far more than writeSetSpill locations, Var and TVar
// interleaved, still commits correctly (the map index takes over and holds
// both shapes) — allocation-freedom is only promised for the
// small-footprint steady state.
func TestAllocsLargeWriteSetSpills(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			vars := make([]*Var, 3*writeSetSpill)
			tvars := make([]*TVar[int], len(vars))
			for i := range vars {
				vars[i] = s.NewVar(fmt.Sprintf("v%d", i), 0)
				tvars[i] = NewTVar(s, fmt.Sprintf("t%d", i), 0)
			}
			err := s.Atomically(func(tx *Tx) error {
				for pass := 0; pass < 2; pass++ { // second pass overwrites via lookup
					for i, v := range vars {
						if pass == 1 { // read-your-own-write through the spill
							if got := tx.Read(v); got != int64(i) {
								t.Errorf("var %d reads %d, want %d", i, got, i)
							}
							if got := ReadT(tx, tvars[i]); got != -i {
								t.Errorf("tvar %d reads %d, want %d", i, got, -i)
							}
						}
						tx.Write(v, int64(pass*1000+i))
						WriteT(tx, tvars[i], -(pass*1000 + i))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vars {
				if got := v.Load(); got != int64(1000+i) {
					t.Fatalf("var %d = %d, want %d", i, got, 1000+i)
				}
				if got := tvars[i].Load(); got != -(1000 + i) {
					t.Fatalf("tvar %d = %d, want %d", i, got, -(1000 + i))
				}
			}
		})
	}
}
