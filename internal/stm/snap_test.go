package stm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEagerRollbackMovesWord does a read's three loads by hand around a
// rollback of an in-place write, on each engine that writes in place:
// the word before the writer locks, the value while the rollback is
// held open (the writer's speculative 99 is in place), the word after
// the rollback. A reader that finds the two words equal accepts what it
// loaded in between, so a rollback that released the word to its
// pre-lock value — or, on global-lock, never locked it — would hand it
// a value no transaction committed.
func TestEagerRollbackMovesWord(t *testing.T) {
	for _, e := range []Engine{Eager, GlobalLock} {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			v := s.NewVar("v", 1)
			var mid int64
			var held uint64
			s.RollbackDelay = func() { mid, held = v.Load(), v.meta.Load() }
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
			if !isLocked(held) {
				t.Fatalf("word %#x unlocked under the speculative value: a Snap would read it", held)
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
		})
	}
}

// TestSnapNoTornAcrossInstances: AtomicallyMulti transfers between a
// Var on one instance and a TVar on another, beside Snap readers that
// check the conserved sum on every valid snapshot, and bounded Snap
// readers that check it as soon as both values are read, before Valid:
// bounds taken before the first read make the snapshot opaque. The
// writers go on past their iterations, paced, until each kind of reader
// has validated minValid snapshots beside them, so the checks run while
// transfers land, not only on the quiet snapshot after them.
func TestSnapNoTornAcrossInstances(t *testing.T) {
	const minValid = 20
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
				ra, rb := sn.Bound(s1), sn.Bound(s2)
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
			var valid, validBounded atomic.Int64
			enough := func() bool { return valid.Load() >= minValid && validBounded.Load() >= minValid }
			start := time.Now()
			deadline := start.Add(5 * time.Second)
			var writers sync.WaitGroup
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func(amt int64) {
					defer writers.Done()
					for i := 0; i < iters || !enough() && time.Now().Before(deadline); i++ {
						if i >= iters {
							// Paced from here on, so that a reader on the
							// same processor can finish a snapshot between
							// two transfers.
							time.Sleep(200 * time.Microsecond)
						}
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
							validBounded.Add(1)
						}
					}
				}()
			}
			writers.Wait()
			took := time.Since(start)
			close(stop)
			readers.Wait()
			t.Logf("%d valid and %d valid bounded snapshots beside the transfers, which took %v of the %v allowed",
				valid.Load(), validBounded.Load(), took.Round(time.Millisecond), deadline.Sub(start))
			if !enough() {
				t.Errorf("only %d valid and %d valid bounded snapshots beside the transfers, want %d of each",
					valid.Load(), validBounded.Load(), minValid)
			}

			// Quiet now: a snapshot holds.
			var sn Snap
			sum, ok := read(&sn)
			if !ok {
				t.Fatal("quiet snapshot invalid")
			}
			if !readBounded(&sn) {
				t.Fatal("quiet bounded snapshot invalid")
			}
			if sum != 1000 {
				t.Fatalf("quiet snapshot sum = %d, want 1000", sum)
			}
		})
	}
}

// TestSnapAccounting: a valid snapshot counts as a read-only commit on
// each instance it read, and as a multi-instance commit when it read
// several — once per instance however many reads it made there; a
// locked, moved or too-new word counts one conflict on its instance and
// names the variable in the contention table. A global-lock instance is
// read and counted as any other.
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
	bound := sn.Bound(s2)
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
				bounds[i] = sn.Bound(many[i])
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
	pb := sn.Bound(p)
	sn.Bound(q)
	if _, ok := sn.Read(pv, pb); !ok || !sn.Valid() {
		t.Fatal("quiet bounded snapshot gave up")
	}
	sn.Reset()
	if got, want := of(q), (counts{1, 1, 1, 0}); got != want {
		t.Fatalf("bounded, not read: %+v, want %+v", got, want)
	}

	// Global-lock: a committed value reads and counts as on lazy, and a
	// word its writer holds mid-body refuses, counted as a conflict.
	g := New(WithEngine(GlobalLock))
	c := g.NewVar("c", 5)
	if n, ok := sn.Read(c, sn.Bound(g)); !ok || n != 5 || !sn.Valid() {
		t.Fatalf("quiet global-lock read = %d, %v; want 5 and a valid snapshot", n, ok)
	}
	sn.Reset()
	if got, want := of(g), (counts{1, 1, 0, 0}); got != want {
		t.Fatalf("global-lock snapshot: %+v, want %+v", got, want)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- g.Atomically(func(tx *Tx) error {
			tx.Write(c, 6)
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	if _, ok := sn.Read(c, math.MaxUint64); ok {
		t.Fatal("Read accepted a word a global-lock writer holds")
	}
	sn.Reset()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := of(g); got.conflicts != 1 {
		t.Fatalf("after a held global-lock word: %+v, want 1 conflict", got)
	}
	if n, ok := sn.Read(c, math.MaxUint64); !ok || n != 6 || !sn.Valid() {
		t.Fatalf("global-lock read after the commit = %d, %v; want 6", n, ok)
	}
	sn.Reset()
}

// snapPair returns two instances of engine e with a Var on each, a on
// the first and b on the second, both committed as 1: a word still at
// version 0 would make every bounded snapshot load its words again.
func snapPair(t *testing.T, e Engine) (stms []*STM, a, b *Var) {
	t.Helper()
	s1, s2 := New(WithEngine(e)), New(WithEngine(e))
	stms, a, b = []*STM{s1, s2}, s1.NewVar("a", 0), s2.NewVar("b", 0)
	err := AtomicallyMulti(stms, func(txs []*Tx) error {
		txs[0].Write(a, 1)
		txs[1].Write(b, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stms, a, b
}

// TestSnapMovedWordStands: a bounded two-instance Run reads a, a commit
// then moves a, and the body reads b. The attempt stands the first
// time, with the old a: it linearizes at its last bound, before the
// commit, so the word that moved after it was read does not undo it.
// With b never committed (its word still at version 0), the snapshot
// loads its words again instead, finds a moved and runs once more.
func TestSnapMovedWordStands(t *testing.T) {
	for _, e := range engines {
		for _, plainB := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/plainB=%v", e, plainB), func(t *testing.T) {
				stms, a, b := snapPair(t, e)
				if plainB {
					b = stms[1].NewVar("b", 1)
				}
				attempts := 0
				var av, bv int64
				var sn Snap
				err := sn.Run(context.Background(), stms, func(bounds []uint64) error {
					attempts++
					var ok bool
					if av, ok = sn.Read(a, bounds[0]); !ok {
						sn.GiveUp()
					}
					if attempts == 1 {
						if err := stms[0].Atomically(func(tx *Tx) error { tx.Write(a, 2); return nil }); err != nil {
							return err
						}
					}
					if bv, ok = sn.Read(b, bounds[1]); !ok {
						sn.GiveUp()
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want, wantA, conflicts := 1, int64(1), []uint64{0, 0}
				if plainB {
					want, wantA = 2, 2
					conflicts[0] = 1 // a's word, found moved
				}
				if attempts != want || av != wantA || bv != 1 {
					t.Fatalf("Run read (a=%d, b=%d) in %d attempts, want (%d, 1) in %d", av, bv, attempts, wantA, want)
				}
				for i, s := range stms {
					if st := s.Snapshot(); st.Conflicts != conflicts[i] || st.ReadOnlyCommits != 1 || st.MultiCommits != 2 {
						t.Errorf("instance %d: %+v, want %d conflicts, one read-only commit and two multi-instance commits (set-up and snapshot)", i, st, conflicts[i])
					}
				}
			})
		}
	}
}

// TestSnapTooNewRestarts: a bounded two-instance Run reads a, a
// transfer then moves a and b together, and the body reads b. The b it
// finds is newer than its bound, so the attempt restarts, and the one
// that stands reads both after the transfer: a pair no instant held
// never reaches the body.
func TestSnapTooNewRestarts(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			stms, a, b := snapPair(t, e)
			attempts := 0
			var av, bv int64
			var sn Snap
			err := sn.Run(context.Background(), stms, func(bounds []uint64) error {
				attempts++
				var ok bool
				if av, ok = sn.Read(a, bounds[0]); !ok {
					sn.GiveUp()
				}
				if attempts == 1 {
					err := AtomicallyMulti(stms, func(txs []*Tx) error {
						txs[0].Write(a, txs[0].Read(a)-1)
						txs[1].Write(b, txs[1].Read(b)+1)
						return nil
					})
					if err != nil {
						return err
					}
				}
				if bv, ok = sn.Read(b, bounds[1]); !ok {
					sn.GiveUp()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts != 2 || av != 0 || bv != 2 {
				t.Fatalf("Run read (a=%d, b=%d) in %d attempts, want (0, 2) in 2", av, bv, attempts)
			}
			if got := stms[1].Snapshot().Conflicts; got != 1 {
				t.Errorf("b's instance counted %d conflicts, want 1 (the too-new read)", got)
			}
		})
	}
}

// TestSnapFenceForcesSecondLook: a bounded Run reads a flag on one
// instance. Another goroutine then commits the flag, runs Quiesce on
// the second instance — which does not wait for a snapshot — and
// plainly stores into x there, and the body reads x. The store moves
// no word, so only the fence tells Valid to load the words again; it
// finds the flag's word moved and the attempt restarts. The snapshot
// never stands as the flag from before the fence beside x from after
// it.
func TestSnapFenceForcesSecondLook(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			stms, flag, x := snapPair(t, e)
			attempts := 0
			var fv, xv int64
			var sn Snap
			err := sn.Run(context.Background(), stms, func(bounds []uint64) error {
				attempts++
				var ok bool
				if fv, ok = sn.Read(flag, bounds[0]); !ok {
					sn.GiveUp()
				}
				if attempts == 1 {
					done := make(chan error)
					go func() {
						err := stms[0].Atomically(func(tx *Tx) error { tx.Write(flag, 2); return nil })
						if err == nil {
							stms[1].Quiesce()
							x.Store(2)
						}
						done <- err
					}()
					if err := <-done; err != nil {
						return err
					}
				}
				if xv, ok = sn.Read(x, bounds[1]); !ok {
					sn.GiveUp()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fv != xv {
				t.Fatalf("Run stood as (flag=%d, x=%d) after %d attempts: the two sides of the fence", fv, xv, attempts)
			}
			if attempts != 2 || fv != 2 {
				t.Fatalf("Run read (flag=%d, x=%d) in %d attempts, want (2, 2) in 2", fv, xv, attempts)
			}
		})
	}
}
