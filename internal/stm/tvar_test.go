package stm

import (
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

// TestTVarIntVarComposition writes both lanes in one transaction and
// checks atomicity of the combined commit.
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
	})
}

// TestTVarConcurrentAppendLog is a contended typed workload: goroutines
// append to a shared []int behind a TVar; every committed append must
// survive (no lost updates on the boxed lane).
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

func TestMapBasics(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		m := NewMap[string, int](s, "m", 8)
		if err := m.Put("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Put("b", 2); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := m.Get("a"); err != nil || !ok || v != 1 {
			t.Fatalf("Get(a)=%d,%v,%v", v, ok, err)
		}
		if _, ok, _ := m.Get("missing"); ok {
			t.Fatal("phantom key")
		}
		if err := m.Put("a", 10); err != nil { // replace
			t.Fatal(err)
		}
		if v, _, _ := m.Get("a"); v != 10 {
			t.Fatalf("replace lost: %d", v)
		}
		if n, _ := m.Len(); n != 2 {
			t.Fatalf("Len=%d, want 2", n)
		}
		if ok, _ := m.Delete("a"); !ok {
			t.Fatal("delete of present key reported absent")
		}
		if ok, _ := m.Delete("a"); ok {
			t.Fatal("double delete reported present")
		}
		if n, _ := m.Len(); n != 1 {
			t.Fatalf("Len after delete=%d, want 1", n)
		}
	})
}

func TestMapConcurrentDisjointKeys(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		m := NewMap[int, string](s, "m", 64)
		const goroutines = 4
		const perG = 50
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := g*perG + i
					if err := m.Put(k, fmt.Sprint(k)); err != nil {
						t.Errorf("put %d: %v", k, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if n, _ := m.Len(); n != goroutines*perG {
			t.Fatalf("Len=%d, want %d", n, goroutines*perG)
		}
		for k := 0; k < goroutines*perG; k++ {
			if v, ok, _ := m.Get(k); !ok || v != fmt.Sprint(k) {
				t.Fatalf("key %d: got %q,%v", k, v, ok)
			}
		}
	})
}

// TestMapComposesWithQueue moves entries from a map into a typed queue
// atomically; an observer sees the total conserved.
func TestMapComposesWithQueue(t *testing.T) {
	s := New(WithEngine(Lazy))
	m := NewMap[string, string](s, "m", 8)
	q := NewQueue[string](s, "q", 8)
	for i := 0; i < 8; i++ {
		if err := m.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := s.Atomically(func(tx *Tx) error {
			v, ok := m.GetTx(tx, k)
			if !ok {
				return ErrAborted
			}
			if !m.DeleteTx(tx, k) || !q.EnqueueTx(tx, v) {
				return ErrAborted
			}
			return nil
		}); err != nil {
			t.Fatalf("move %s: %v", k, err)
		}
		var mapN, qN int64
		_ = s.Atomically(func(tx *Tx) error {
			mapN = int64(m.LenTx(tx))
			qN = tx.Read(q.size)
			return nil
		})
		if mapN+qN != 8 {
			t.Fatalf("conservation broken: map=%d queue=%d", mapN, qN)
		}
	}
	if n, _ := q.Len(); n != 8 {
		t.Fatalf("queue has %d, want 8", n)
	}
}

// TestQueueClearsDequeuedSlot: dequeued boxes must not stay pinned in the
// ring buffer (reference-typed payloads would otherwise leak until the
// ring wraps).
func TestQueueClearsDequeuedSlot(t *testing.T) {
	s := New()
	q := NewQueue[[]byte](s, "q", 4)
	if ok, _ := q.Enqueue([]byte("big payload")); !ok {
		t.Fatal("enqueue failed")
	}
	if v, ok, _ := q.Dequeue(); !ok || string(v) != "big payload" {
		t.Fatalf("dequeue: %q %v", v, ok)
	}
	if got := q.buf[0].Load(); got != nil {
		t.Fatalf("dequeued slot still pins %q", got)
	}
}
