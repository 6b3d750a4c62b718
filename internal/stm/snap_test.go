package stm

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEagerRollbackMovesWord does a read's three loads by hand around an
// eager rollback: the word before the writer locks, the value while the
// rollback is held open (the writer's speculative 99 is in place), the
// word after the rollback. A reader that finds the two words equal
// accepts what it loaded in between, so a rollback that released the
// word to its pre-lock value would hand it a value no transaction
// committed.
func TestEagerRollbackMovesWord(t *testing.T) {
	s := New(WithEngine(Eager))
	v := s.NewVar("v", 1)
	var mid int64
	s.RollbackDelay = func() { mid = v.Load() }
	m1 := v.meta.Load()
	errBody := errors.New("abort")
	err := s.Atomically(func(tx *Tx) error {
		tx.Write(v, 99)
		return errBody
	})
	if !errors.Is(err, errBody) {
		t.Fatalf("Atomically = %v, want the body's error", err)
	}
	m2 := v.meta.Load()
	if mid != 99 {
		t.Fatalf("value inside the rollback = %d, want the speculative 99", mid)
	}
	if m1 == m2 {
		t.Fatalf("rollback released the word to its pre-lock value %#x: a read that loaded 99 in between validates", m1)
	}
	if got := v.Load(); got != 1 {
		t.Fatalf("value after rollback = %d, want 1", got)
	}
	if isLocked(m2) {
		t.Fatalf("word %#x still locked after rollback", m2)
	}
}

// TestSnapNoTornAcrossInstances: AtomicallyMulti transfers between a
// Var on one instance and a TVar on another, beside Snap readers that
// check the conserved sum on every valid snapshot, and bounded Snap
// readers that check it as soon as both values are read, before Valid:
// bounds taken before the first read make the snapshot opaque. On
// global-lock every read gives up, as the engine writes in place
// without touching words.
func TestSnapNoTornAcrossInstances(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s1, s2 := New(WithEngine(e)), New(WithEngine(e))
			a := s1.NewVar("a", 500)
			b := NewTVar[int64](s2, "b", 500)
			stms := []*STM{s1, s2}
			read := func(sn *Snap) (int64, bool) {
				defer sn.Reset()
				av, ok := sn.Read(a, math.MaxUint64)
				if !ok {
					return 0, false
				}
				runtime.Gosched() // let a transfer land between the reads
				bv, ok := SnapBox(sn, b, math.MaxUint64)
				if !ok || !sn.Valid() {
					return 0, false
				}
				return av + *bv, true
			}
			// readBounded fails the test on a torn pair before Valid.
			readBounded := func(sn *Snap) bool {
				defer sn.Reset()
				ra, ok1 := sn.Bound(s1)
				rb, ok2 := sn.Bound(s2)
				if !ok1 || !ok2 {
					return false
				}
				av, ok := sn.Read(a, ra)
				if !ok {
					return false
				}
				runtime.Gosched()
				bv, ok := SnapBox(sn, b, rb)
				if !ok {
					return false
				}
				if sum := av + *bv; sum != 1000 {
					t.Errorf("bounded snapshot saw a torn pair before Valid: sum = %d, want 1000", sum)
				}
				return sn.Valid()
			}

			iters := 300
			if testing.Short() {
				iters = 100
			}
			var writers sync.WaitGroup
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func(amt int64) {
					defer writers.Done()
					for i := 0; i < iters; i++ {
						err := AtomicallyMulti(stms, func(txs []*Tx) error {
							txs[0].Write(a, txs[0].Read(a)-amt)
							WriteT(txs[1], b, ReadT(txs[1], b)+amt)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(int64(w + 1))
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			var valid atomic.Int64
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					var sn Snap
					for {
						select {
						case <-stop:
							return
						default:
						}
						if sum, ok := read(&sn); ok {
							valid.Add(1)
							if sum != 1000 {
								t.Errorf("torn snapshot: sum = %d, want 1000", sum)
								return
							}
						}
						if readBounded(&sn) {
							valid.Add(1)
						}
					}
				}()
			}
			writers.Wait()
			close(stop)
			readers.Wait()

			// Quiet now: a snapshot holds wherever the engine allows one.
			var sn Snap
			sum, ok := read(&sn)
			if ok != (e != GlobalLock) {
				t.Fatalf("quiet snapshot valid = %v, want %v", ok, e != GlobalLock)
			}
			if ok := readBounded(&sn); ok != (e != GlobalLock) {
				t.Fatalf("quiet bounded snapshot valid = %v, want %v", ok, e != GlobalLock)
			}
			if ok && sum != 1000 {
				t.Fatalf("quiet snapshot sum = %d, want 1000", sum)
			}
			if e == GlobalLock && valid.Load() != 0 {
				t.Fatalf("%d valid snapshots on global-lock, want 0", valid.Load())
			}
			t.Logf("%d valid snapshots beside the transfers", valid.Load())
		})
	}
}

// TestSnapAccounting: a valid snapshot counts as a read-only commit on
// each instance it read, and as a multi-instance commit when it read
// several — once per instance however many reads it made there; a
// locked, moved or too-new word counts one conflict on its instance and
// names the variable in the contention table; an engine that cannot be
// read this way gives up without counting anything.
func TestSnapAccounting(t *testing.T) {
	type counts struct{ commits, ro, multi, conflicts uint64 }
	of := func(s *STM) counts {
		st := s.Snapshot()
		return counts{st.Commits, st.ReadOnlyCommits, st.MultiCommits, st.Conflicts}
	}
	s1, s2 := New(), New()
	a, a2 := s1.NewVar("a", 1), s1.NewVar("a2", 2)
	b := s2.NewVar("b", 3)

	var sn Snap
	for _, v := range []*Var{a, a2} {
		if _, ok := sn.Read(v, math.MaxUint64); !ok {
			t.Fatal("Read gave up on a quiet lazy variable")
		}
	}
	if !sn.Valid() {
		t.Fatal("quiet one-instance snapshot invalid")
	}
	sn.Reset()
	if got, want := of(s1), (counts{1, 1, 0, 0}); got != want {
		t.Fatalf("one instance, two reads: %+v, want %+v", got, want)
	}

	for _, v := range []*Var{a, b, a2} {
		if _, ok := sn.Read(v, math.MaxUint64); !ok {
			t.Fatal("Read gave up on a quiet lazy variable")
		}
	}
	if !sn.Valid() {
		t.Fatal("quiet two-instance snapshot invalid")
	}
	sn.Reset()
	if got, want := of(s1), (counts{2, 2, 1, 0}); got != want {
		t.Fatalf("two instances, s1: %+v, want %+v", got, want)
	}
	if got, want := of(s2), (counts{1, 1, 1, 0}); got != want {
		t.Fatalf("two instances, s2: %+v, want %+v", got, want)
	}

	// Locked: Read gives up and charges b.
	m := b.meta.Load()
	b.meta.Store(m | lockedBit)
	if _, ok := sn.Read(b, math.MaxUint64); ok {
		t.Fatal("Read accepted a locked word")
	}
	sn.Reset()
	b.meta.Store(m)
	if got := of(s2).conflicts; got != 1 {
		t.Fatalf("conflicts after a locked read = %d, want 1", got)
	}

	// Moved between the read and Valid: a commit in between.
	if _, ok := sn.Read(b, math.MaxUint64); !ok {
		t.Fatal("Read gave up on a quiet variable")
	}
	if err := s2.Atomically(func(tx *Tx) error { tx.Write(b, 4); return nil }); err != nil {
		t.Fatal(err)
	}
	if sn.Valid() {
		t.Fatal("Valid accepted a word that moved")
	}
	sn.Reset()
	if got := of(s2); got.conflicts != 2 || got.ro != 1 {
		t.Fatalf("after a moved word: %+v, want 2 conflicts and still 1 read-only commit", got)
	}
	hot := s2.Metrics().Contention.Snapshot()
	if len(hot) != 1 || hot[0].ID != b.ID() || hot[0].Count != 2 {
		t.Fatalf("contention = %+v, want b (id %d) twice", hot, b.ID())
	}

	// Too new: committed after the bound was taken.
	bound, ok := sn.Bound(s2)
	if !ok {
		t.Fatal("Bound refused a lazy instance")
	}
	if _, ok := sn.Read(b, bound); !ok {
		t.Fatal("Read under a fresh bound gave up on a quiet variable")
	}
	if err := s2.Atomically(func(tx *Tx) error { tx.Write(b, 5); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := sn.Read(b, bound); ok {
		t.Fatal("Read accepted a word committed after its bound")
	}
	sn.Reset()
	if got := of(s2); got.conflicts != 3 {
		t.Fatalf("after a too-new read: %+v, want 3 conflicts", got)
	}

	// 256 reads over 16 instances: one commit of each kind on each,
	// whether Valid finds the instances among the reads or the snapshot
	// bounded them up front.
	var many []*STM
	var vars []*Var
	for i := range 16 {
		many = append(many, New())
		for j := range 16 {
			vars = append(vars, many[i].NewVar("v", int64(j)))
		}
	}
	for round, bounded := range []bool{false, true} {
		bounds := make([]uint64, len(many))
		for i := range bounds {
			bounds[i] = math.MaxUint64
			if bounded {
				bounds[i], _ = sn.Bound(many[i])
			}
		}
		for j := range 16 {
			for i := range 16 { // interleaved: no two reads in a row share an instance
				if _, ok := sn.Read(vars[i*16+j], bounds[i]); !ok {
					t.Fatal("Read gave up on a quiet variable")
				}
			}
		}
		if !sn.Valid() {
			t.Fatal("quiet 256-read snapshot invalid")
		}
		sn.Reset()
		n := uint64(round + 1)
		for i, s := range many {
			if got, want := of(s), (counts{n, n, n, 0}); got != want {
				t.Fatalf("256 reads over 16 instances (bounded %v), instance %d: %+v, want %+v", bounded, i, got, want)
			}
		}
	}

	// A bounded snapshot counts on every instance it bounded, as a
	// read-only transaction counts on every instance it spans.
	p, q := New(), New()
	pv := p.NewVar("p", 1)
	pb, _ := sn.Bound(p)
	sn.Bound(q)
	if _, ok := sn.Read(pv, pb); !ok || !sn.Valid() {
		t.Fatal("quiet bounded snapshot gave up")
	}
	sn.Reset()
	if got, want := of(q), (counts{1, 1, 1, 0}); got != want {
		t.Fatalf("bounded, not read: %+v, want %+v", got, want)
	}

	// Global-lock: silent give-up.
	g := New(WithEngine(GlobalLock))
	c := g.NewVar("c", 5)
	if _, ok := sn.Bound(g); ok {
		t.Fatal("Bound accepted a global-lock instance")
	}
	if _, ok := sn.Read(c, math.MaxUint64); ok {
		t.Fatal("Read accepted a global-lock variable")
	}
	sn.Reset()
	if got := of(g); got != (counts{}) {
		t.Fatalf("global-lock give-up counted %+v, want nothing", got)
	}
}
