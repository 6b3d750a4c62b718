package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

type point struct{ X, Y int }

func TestTVarSequentialReadWrite(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		str := NewTVar(s, "str", "hello")
		pt := NewTVar(s, "pt", point{1, 2})
		err := s.Atomically(func(tx *Tx) error {
			if got := ReadT(tx, str); got != "hello" {
				t.Errorf("initial read = %q, want hello", got)
			}
			WriteT(tx, str, "world")
			if got := ReadT(tx, str); got != "world" {
				t.Errorf("read-your-write = %q, want world", got)
			}
			WriteT(tx, pt, point{3, 4})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := str.Load(); got != "world" {
			t.Errorf("after commit str = %q, want world", got)
		}
		if got := pt.Load(); got != (point{3, 4}) {
			t.Errorf("after commit pt = %v", got)
		}
	})
}

func TestTVarAbortRollsBack(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		v := NewTVar(s, "v", "keep")
		err := s.Atomically(func(tx *Tx) error {
			WriteT(tx, v, "discard")
			return ErrAborted
		})
		if err != ErrAborted {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		if got := v.Load(); got != "keep" {
			t.Errorf("aborted typed write leaked: %q", got)
		}
	})
}

func TestTVarMixedModeVisibility(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		v := NewTVar(s, "v", []byte(nil))
		v.Store([]byte("plain"))
		var got []byte
		if err := s.Atomically(func(tx *Tx) error {
			got = ReadT(tx, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if string(got) != "plain" {
			t.Errorf("transactional read after plain store = %q", got)
		}
		if err := s.Atomically(func(tx *Tx) error {
			WriteT(tx, v, []byte("txn"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if string(v.Load()) != "txn" {
			t.Errorf("plain load after transactional write = %q", v.Load())
		}
	})
}

// TestTVarSnapshotConsistency is the typed twin of TestConflictDetection:
// a reader transaction must never observe a torn pair across two typed
// vars, on any engine.
func TestTVarSnapshotConsistency(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		a := NewTVar(s, "a", "0")
		b := NewTVar(s, "b", "0")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= 300; i++ {
				val := fmt.Sprint(i)
				_ = s.Atomically(func(tx *Tx) error {
					WriteT(tx, a, val)
					WriteT(tx, b, val)
					return nil
				})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var av, bv string
				if err := s.Atomically(func(tx *Tx) error {
					av = ReadT(tx, a)
					bv = ReadT(tx, b)
					return nil
				}); err != nil {
					t.Errorf("snapshot read failed: %v", err)
					return
				}
				if av != bv {
					t.Errorf("torn typed snapshot: a=%s b=%s", av, bv)
					return
				}
			}
		}()
		wg.Wait()
	})
}

// TestTVarIntVarComposition writes both shapes in one transaction and
// checks atomicity of the combined commit, then of a combined abort.
func TestTVarIntVarComposition(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		label := NewTVar(s, "label", "")
		count := s.NewVar("count", 0)
		for i := 1; i <= 5; i++ {
			want := fmt.Sprintf("gen-%d", i)
			if err := s.Atomically(func(tx *Tx) error {
				WriteT(tx, label, want)
				tx.Write(count, tx.Read(count)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		var gotLabel string
		var gotCount int64
		if err := s.Atomically(func(tx *Tx) error {
			gotLabel = ReadT(tx, label)
			gotCount = tx.Read(count)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if gotLabel != "gen-5" || gotCount != 5 {
			t.Errorf("label=%q count=%d, want gen-5/5", gotLabel, gotCount)
		}

		// An aborting round writes each shape twice and reads both back:
		// the undo log, shared by both shapes, must restore newest-first,
		// so each location ends at its value from before the round.
		errRound := errors.New("round aborted")
		err := s.Atomically(func(tx *Tx) error {
			for _, l := range []string{"x", "y"} {
				WriteT(tx, label, l)
				tx.Write(count, tx.Read(count)+10)
			}
			if l, c := ReadT(tx, label), tx.Read(count); l != "y" || c != 25 {
				t.Errorf("inside the round: label=%q count=%d, want y/25", l, c)
			}
			return errRound
		})
		if !errors.Is(err, errRound) {
			t.Fatalf("aborting round returned %v, want %v", err, errRound)
		}
		if l, c := label.Load(), count.Load(); l != "gen-5" || c != 5 {
			t.Errorf("after the round: label=%q count=%d, want gen-5/5", l, c)
		}
	})
}

// TestTVarConcurrentAppendLog is a contended typed workload: goroutines
// append to a shared []int behind a TVar; every committed append must
// survive (no lost updates through a TVar).
func TestTVarConcurrentAppendLog(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		log := NewTVar(s, "log", []int(nil))
		const goroutines = 4
		const perG = 50
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					v := g*perG + i
					if err := s.Atomically(func(tx *Tx) error {
						cur := ReadT(tx, log)
						// Copy-on-write: committed boxes are immutable.
						next := make([]int, len(cur)+1)
						copy(next, cur)
						next[len(cur)] = v
						WriteT(tx, log, next)
						return nil
					}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		final := log.Load()
		if len(final) != goroutines*perG {
			t.Fatalf("log has %d entries, want %d", len(final), goroutines*perG)
		}
		seen := make(map[int]bool, len(final))
		for _, v := range final {
			if seen[v] {
				t.Fatalf("value %d appended twice", v)
			}
			seen[v] = true
		}
	})
}
