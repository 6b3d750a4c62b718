package kv

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"modtx/internal/stm"
)

func TestDeleteBasic(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.Set("a", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CounterAdd("c", 7); err != nil {
				t.Fatal(err)
			}
			if n := s.Len(); n != 2 {
				t.Fatalf("Len=%d, want 2", n)
			}

			if ok, err := s.Delete("missing"); err != nil || ok {
				t.Fatalf("Delete(missing)=%v,%v, want false", ok, err)
			}
			if ok, err := s.Delete("a"); err != nil || !ok {
				t.Fatalf("Delete(a)=%v,%v, want true", ok, err)
			}
			if ok, err := s.Delete("a"); err != nil || ok {
				t.Fatalf("second Delete(a)=%v,%v, want false", ok, err)
			}
			// Gone on every read path, and unlinked from the table.
			if _, ok, _ := s.Get("a"); ok {
				t.Fatal("Get sees deleted key")
			}
			if _, ok := s.FastGet("a"); ok {
				t.Fatal("FastGet sees deleted key")
			}
			if got, _ := s.MGet("a", "c"); len(got) != 1 || string(got["c"]) != "7" {
				t.Fatalf("MGet after delete: %v", got)
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("Len after delete=%d, want 1", n)
			}

			// Deleting a counter frees the kind: the key can come back as
			// bytes.
			if ok, err := s.Delete("c"); err != nil || !ok {
				t.Fatalf("Delete(c)=%v,%v", ok, err)
			}
			if err := s.Set("c", []byte("now bytes")); err != nil {
				t.Fatalf("re-create with new kind: %v", err)
			}
			if v, ok, _ := s.Get("c"); !ok || string(v) != "now bytes" {
				t.Fatalf("re-created key reads %q,%v", v, ok)
			}
		})
	}
}

func TestTxnDelete(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.MSet(map[string][]byte{"x": []byte("1"), "y": []byte("2")}); err != nil {
				t.Fatal(err)
			}
			// Delete inside a transaction: the key reads as absent within
			// the same transaction and is collected after commit.
			err := s.Update([]string{"x", "y"}, func(tx *Txn) error {
				if !tx.Delete("x") {
					t.Error("Txn.Delete(x) reported absent")
				}
				if tx.Delete("x") {
					t.Error("second Txn.Delete(x) reported present")
				}
				if _, ok := tx.Get("x"); ok {
					t.Error("deleted key visible inside its own transaction")
				}
				if v, ok := tx.Get("y"); !ok || string(v) != "2" {
					t.Errorf("unrelated key disturbed: %q,%v", v, ok)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("x"); ok {
				t.Fatal("committed Txn.Delete did not remove the key")
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("Len=%d, want 1", n)
			}

			// An aborted transaction rolls the delete back.
			boom := errors.New("boom")
			err = s.Update([]string{"y"}, func(tx *Txn) error {
				tx.Delete("y")
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v", err)
			}
			if v, ok, _ := s.Get("y"); !ok || string(v) != "2" {
				t.Fatalf("aborted delete leaked: %q,%v", v, ok)
			}

			// Delete-then-Set in one transaction leaves the key with the
			// new value, atomically.
			err = s.Update([]string{"y"}, func(tx *Txn) error {
				tx.Delete("y")
				tx.Set("y", []byte("reborn"))
				if v, ok := tx.Get("y"); !ok || string(v) != "reborn" {
					t.Errorf("resurrected key reads %q,%v in-txn", v, ok)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get("y"); !ok || string(v) != "reborn" {
				t.Fatalf("resurrected key reads %q,%v", v, ok)
			}
		})
	}
}

func TestTxnDeleteAddRestartsCounter(t *testing.T) {
	// Delete-then-Add of a counter in one transaction must match the
	// committed sequential semantics (fresh entry): the counter restarts
	// at zero, not at its pre-delete value.
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(e))
			if _, err := s.CounterAdd("k", 7); err != nil {
				t.Fatal(err)
			}
			var got int64
			if err := s.Update([]string{"k"}, func(tx *Txn) error {
				tx.Delete("k")
				got = tx.Add("k", 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("in-txn delete+add returned %d, want 1 (counter restarts)", got)
			}
			if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != 1 {
				t.Fatalf("committed value %d,%v,%v, want 1", v, ok, err)
			}
			// A second Add in the same transaction accumulates normally.
			if err := s.Update([]string{"k"}, func(tx *Txn) error {
				tx.Delete("k")
				tx.Add("k", 5)
				got = tx.Add("k", 2)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 7 {
				t.Fatalf("resurrect then second add = %d, want 7", got)
			}
		})
	}
}

// deleteUncollected commits absent over key's value WITHOUT running the
// collector, reproducing the window between a concurrent Delete's commit
// and its collection.
func deleteUncollected(t *testing.T, s *Store, key string) *entry {
	t.Helper()
	sh, h := s.route(key)
	e := sh.lookup(key, h)
	if e == nil {
		t.Fatalf("key %q has no entry to delete", key)
	}
	if err := sh.stm.Atomically(func(tx *stm.Tx) error {
		e.write(tx, absent)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// retireUnlinked takes key's entry to the retired state WITHOUT
// unlinking it: the collector stopped between its two steps.
func retireUnlinked(t *testing.T, s *Store, key string) *entry {
	t.Helper()
	e := deleteUncollected(t, s, key)
	sh := s.shards[s.ShardOf(key)]
	if err := sh.stm.Atomically(func(tx *stm.Tx) error {
		e.write(tx, retired)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPublishPrivatizeEnsureOnDyingEntry pins the dying-entry window:
// Publish, Privatize and EnsureKeys that find a deleted key's entry not
// yet collected must leave a key the late collector does not take —
// their plain writes land in an entry a transaction made present first.
func TestPublishPrivatizeEnsureOnDyingEntry(t *testing.T) {
	for _, dying := range []struct {
		name string
		kill func(*testing.T, *Store, string) *entry
	}{{"absent", deleteUncollected}, {"retired", retireUnlinked}} {
		t.Run(dying.name, func(t *testing.T) {
			s := New(WithShards(2))
			late := func(_ string, e *entry) { s.collect([]*entry{e}) } // the racing deleter's collector lands late

			if err := s.Set("p", []byte("old")); err != nil {
				t.Fatal(err)
			}
			e := dying.kill(t, s, "p")
			if err := s.Publish(map[string][]byte{"p": []byte("published")}); err != nil {
				t.Fatal(err)
			}
			late("p", e)
			if v, ok, err := s.Get("p"); err != nil || !ok || string(v) != "published" {
				t.Fatalf("published value lost to the collector: %q,%v,%v", v, ok, err)
			}

			// Privatize must hand back a handle on a present entry.
			if err := s.Set("q", []byte("old")); err != nil {
				t.Fatal(err)
			}
			e = dying.kill(t, s, "q")
			vars, err := s.Privatize("q")
			if err != nil {
				t.Fatal(err)
			}
			if v := vars[0].Load(); v != nil {
				t.Fatalf("privatized handle of a re-created key loads %q, want nil", v)
			}
			vars[0].Store([]byte("private"))
			late("q", e)
			if v, ok := s.FastGet("q"); !ok || string(v) != "private" {
				t.Fatalf("privatized write lost to the collector: %q,%v", v, ok)
			}

			// EnsureKeys / EnsureCounters over a dying entry leave the key
			// present with the zero value.
			if err := s.Set("r", []byte("old")); err != nil {
				t.Fatal(err)
			}
			e = dying.kill(t, s, "r")
			s.EnsureKeys("r")
			late("r", e)
			if v, ok := s.FastGet("r"); !ok || v != nil {
				t.Fatalf("EnsureKeys over a dying entry: %q,%v, want nil,true", v, ok)
			}
			if _, err := s.CounterAdd("n", 5); err != nil {
				t.Fatal(err)
			}
			e = dying.kill(t, s, "n")
			s.EnsureCounters("n")
			late("n", e)
			if v, ok := s.FastCounterGet("n"); !ok || v != 0 {
				t.Fatalf("EnsureCounters over a dying entry: %d,%v, want 0,true", v, ok)
			}
		})
	}
}

// TestDyingEntryIsAbsentAndWritable: between a delete's commit and the
// end of its collection every reader sees no key, a writer of either
// kind creates the key afresh (stepping over a retired entry, or helping
// collect an absent one of the other kind), and the late collector takes
// nothing that was written since.
func TestDyingEntryIsAbsentAndWritable(t *testing.T) {
	for _, e := range kvEngines {
		for _, dying := range []struct {
			name string
			kill func(*testing.T, *Store, string) *entry
		}{{"absent", deleteUncollected}, {"retired", retireUnlinked}} {
			t.Run(e.String()+"/"+dying.name, func(t *testing.T) {
				s := New(WithShards(2), WithEngine(e))
				for _, k := range []string{"same", "other", "txn"} {
					if _, err := s.CounterAdd(k, 7); err != nil {
						t.Fatal(err)
					}
				}
				old := map[string]*entry{}
				for _, k := range []string{"same", "other", "txn"} {
					old[k] = dying.kill(t, s, k)
					if _, ok := s.FastGet(k); ok {
						t.Fatalf("FastGet sees dying key %s", k)
					}
					if _, ok, err := s.Get(k); ok || err != nil {
						t.Fatalf("Get sees dying key %s (%v)", k, err)
					}
					if _, ok, err := s.CounterGet(k); ok || err != nil {
						t.Fatalf("CounterGet sees dying key %s (%v)", k, err)
					}
					if got, err := s.MGet(k); err != nil || len(got) != 0 {
						t.Fatalf("MGet sees dying key %s: %v,%v", k, got, err)
					}
				}
				// Same kind: the counter restarts at zero.
				if v, err := s.CounterAdd("same", 1); err != nil || v != 1 {
					t.Fatalf("CounterAdd on a dying counter = %d,%v, want 1", v, err)
				}
				// Other kind: deletion freed it, collected or not.
				if err := s.Set("other", []byte("bytes now")); err != nil {
					t.Fatalf("Set on a dying counter: %v", err)
				}
				if err := s.Update([]string{"txn"}, func(tx *Txn) error {
					if tx.Delete("txn") {
						t.Error("Txn.Delete reported a dying key present")
					}
					tx.Set("txn", []byte("in txn"))
					return nil
				}); err != nil {
					t.Fatalf("Txn.Set on a dying counter: %v", err)
				}
				for _, e := range old {
					s.collect([]*entry{e})
				}
				if v, ok, _ := s.CounterGet("same"); !ok || v != 1 {
					t.Fatalf("re-created counter after the late collector: %d,%v", v, ok)
				}
				for k, want := range map[string]string{"other": "bytes now", "txn": "in txn"} {
					if v, ok, err := s.Get(k); err != nil || !ok || string(v) != want {
						t.Fatalf("Get(%s) after the late collector = %q,%v,%v", k, v, ok, err)
					}
				}
				if n := s.Len(); n != 3 {
					t.Fatalf("Len=%d, want 3 (collector leaked or lost entries)", n)
				}
			})
		}
	}
}

// TestPrivatizedHandleOutlivesItsEntry: Privatize hands out a pointer
// into the entry, so the handle is the entry's keeper. Once the key is
// deleted and collected and the table rebuilt without it, the handle is
// the only thing left holding that entry: plain Load and Store through
// it still read what they wrote — across collections of the heap, and
// while other keys are linked around it — and never reach the successor
// entry a later Set links under the same name.
func TestPrivatizedHandleOutlivesItsEntry(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(1), WithEngine(e))
			if err := s.Set("p", []byte("old")); err != nil {
				t.Fatal(err)
			}
			vars, err := s.Privatize("p")
			if err != nil {
				t.Fatal(err)
			}
			h := vars[0]
			sh := s.shards[0]
			if old := sh.lookup("p", fnv1a("p")); h != &old.b {
				t.Fatal("Privatize did not hand out the entry's own word")
			}
			if existed, err := s.Delete("p"); err != nil || !existed {
				t.Fatalf("Delete = %v,%v", existed, err)
			}
			if sh.lookup("p", fnv1a("p")) != nil {
				t.Fatal("the deleted key's entry was not collected")
			}

			// Link keys until the table has been rebuilt (twice, so that
			// no array holding the entry or its tombstone is the current
			// one), storing and loading through the handle meanwhile.
			done := make(chan struct{})
			go func() {
				defer close(done)
				before := sh.tbl.Load()
				for i, rebuilt := 0, 0; rebuilt < 2; i++ {
					if err := s.Set(fmt.Sprintf("filler:%d", i), []byte("x")); err != nil {
						t.Error(err)
						return
					}
					if cur := sh.tbl.Load(); cur != before {
						before, rebuilt = cur, rebuilt+1
					}
				}
			}()
			for i, linking := 0, true; linking; i++ {
				want := strconv.Itoa(i)
				h.Store([]byte(want))
				if got := string(h.Load()); got != want {
					t.Fatalf("handle read %q after storing %q", got, want)
				}
				select {
				case <-done:
					linking = false
				default:
				}
			}
			runtime.GC()
			h.Store([]byte("mine"))

			if err := s.Set("p", []byte("successor")); err != nil {
				t.Fatal(err)
			}
			if next := sh.lookup("p", fnv1a("p")); next == nil || &next.b == h {
				t.Fatal("the re-created key reuses the privatized entry")
			}
			if got := string(h.Load()); got != "mine" {
				t.Fatalf("handle reads %q after the key was re-created, want its own write", got)
			}
			h.Store([]byte("still mine"))
			runtime.GC()
			if v, ok := s.FastGet("p"); !ok || string(v) != "successor" {
				t.Fatalf("successor reads %q,%v after a store through the old handle", v, ok)
			}
			if v, ok, err := s.Get("p"); err != nil || !ok || string(v) != "successor" {
				t.Fatalf("successor Get = %q,%v,%v", v, ok, err)
			}
			if got := string(h.Load()); got != "still mine" {
				t.Fatalf("handle reads %q, want its own write", got)
			}
		})
	}
}

func TestTxnDeleteKindStaysFixedInTxn(t *testing.T) {
	// Delete-then-Set in one transaction are two writes of one word, so
	// the kind cannot change within the transaction; the mismatch aborts
	// with no effects (including the delete). Once a delete has committed
	// the kind is free.
	s := New(WithShards(2))
	if _, err := s.CounterAdd("k", 3); err != nil {
		t.Fatal(err)
	}
	err := s.Update([]string{"k"}, func(tx *Txn) error {
		tx.Delete("k")
		tx.Set("k", []byte("bytes now"))
		return nil
	})
	if !errors.Is(err, ErrWrongType) {
		t.Fatalf("err=%v, want ErrWrongType", err)
	}
	if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != 3 {
		t.Fatalf("failed txn disturbed the key: %d,%v,%v", v, ok, err)
	}
	if err := s.Update([]string{"k"}, func(tx *Txn) error {
		tx.Delete("k")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update([]string{"k"}, func(tx *Txn) error {
		tx.Set("k", []byte("bytes now"))
		return nil
	}); err != nil {
		t.Fatalf("Set after a committed Txn.Delete: %v", err)
	}
	if v, ok, _ := s.Get("k"); !ok || string(v) != "bytes now" {
		t.Fatalf("re-created key reads %q,%v", v, ok)
	}
}

// TestCounterReservedValues: the two lowest int64s are the counter
// lane's absent and retired states. A write that would store one fails
// with ErrCounterRange and leaves the key as it was, instead of silently
// deleting it.
func TestCounterReservedValues(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(e))
			if _, err := s.CounterAdd("k", -5); err != nil {
				t.Fatal(err)
			}
			for _, delta := range []int64{math.MinInt64 + 5, math.MinInt64 + 6} {
				if v, err := s.CounterAdd("k", delta); !errors.Is(err, ErrCounterRange) {
					t.Fatalf("CounterAdd(k, %d) = %d,%v, want ErrCounterRange", delta, v, err)
				}
			}
			if v, err := s.CounterAdd("fresh", math.MinInt64); !errors.Is(err, ErrCounterRange) {
				t.Fatalf("CounterAdd(fresh, MinInt64) = %d,%v, want ErrCounterRange", v, err)
			}
			err := s.Update([]string{"k"}, func(tx *Txn) error {
				tx.Add("k", 1)
				tx.CounterSet("k", math.MinInt64)
				return nil
			})
			if !errors.Is(err, ErrCounterRange) {
				t.Fatalf("Txn.CounterSet(MinInt64): %v, want ErrCounterRange", err)
			}
			if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != -5 {
				t.Fatalf("rejected writes disturbed the key: %d,%v,%v", v, ok, err)
			}
			if _, ok := s.FastCounterGet("fresh"); ok {
				t.Fatal("a rejected creating CounterAdd left a key")
			}
			// The lowest storable value is storable.
			if v, err := s.CounterAdd("k", math.MinInt64+7); err != nil || v != math.MinInt64+2 {
				t.Fatalf("CounterAdd to MinInt64+2 = %d,%v", v, err)
			}
		})
	}
}

// TestDeleteSetRace hammers Delete against Set/CounterAdd on a small hot
// keyspace on every engine: writers must never write into a retired
// entry (lost update into an unlinked one), and the store must end in a
// coherent state where a final Set is durably readable. Run under -race.
func TestDeleteSetRace(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(e))
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("hot-%d", i)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						k := keys[(i+w)%len(keys)]
						switch (i + w) % 3 {
						case 0:
							if err := s.Set(k, []byte("v")); err != nil {
								t.Errorf("Set: %v", err)
								return
							}
						case 1:
							if _, err := s.Delete(k); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						default:
							if _, ok, err := s.Get(k); err != nil {
								t.Errorf("Get: %v,%v", ok, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			// Every key must be writable and durably readable afterwards.
			for _, k := range keys {
				if err := s.Set(k, []byte("final")); err != nil {
					t.Fatalf("final Set(%s): %v", k, err)
				}
				if v, ok, err := s.Get(k); err != nil || !ok || string(v) != "final" {
					t.Fatalf("final Get(%s)=%q,%v,%v", k, v, ok, err)
				}
			}
			if n := s.Len(); n != len(keys) {
				t.Fatalf("Len=%d, want %d (collector leaked or lost entries)", n, len(keys))
			}
		})
	}
}
