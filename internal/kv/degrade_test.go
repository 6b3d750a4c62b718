package kv

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"modtx/internal/fault"
	"modtx/internal/wal"
)

// waitDegraded polls until the store latches the WAL fault (the OnFail
// hook runs on the batcher goroutine, so the transition is prompt but
// asynchronous).
func waitDegraded(t *testing.T, s *Store) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if deg, err := s.Degraded(); deg {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("store never transitioned to degraded")
	return nil
}

// TestDegradedReadOnly pins degraded mode end to end: a scripted disk
// fault latches the WAL, the store flips degraded, writes bounce with
// ErrDegraded while reads keep serving, and reopening over the healed
// disk recovers the durable prefix cleanly.
func TestDegradedReadOnly(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, dir, wal.Fsync, WithWALFS(dfs))

	if err := s.Set("stable", []byte("before")); err != nil {
		t.Fatal(err)
	}

	dfs.FailNextWrite(fault.ErrIO)
	// This write commits in memory but its append dies; at the Fsync
	// level that surfaces here, dressed as ErrDegraded.
	if err := s.Set("torn", []byte("during")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write during fault: got %v, want ErrDegraded", err)
	}
	if err := waitDegraded(t, s); !errors.Is(err, syscall.EIO) {
		t.Fatalf("degraded cause: got %v, want EIO", err)
	}

	// Writes of every flavor are rejected at the gate...
	if err := s.Set("k", []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Set: got %v, want ErrDegraded", err)
	}
	if _, err := s.CounterAdd("c", 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("CounterAdd: got %v, want ErrDegraded", err)
	}
	if _, err := s.Delete("stable"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Delete: got %v, want ErrDegraded", err)
	}
	if err := s.Update([]string{"a", "b"}, func(tx *Txn) error { tx.Set("a", []byte("x")); return nil }); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Update: got %v, want ErrDegraded", err)
	}
	// ...while reads keep serving.
	if v, ok, err := s.Get("stable"); err != nil || !ok || string(v) != "before" {
		t.Fatalf("Get during degraded: %q %v %v", v, ok, err)
	}

	st := s.WALStats()
	if !st.Degraded || st.Err == "" {
		t.Fatalf("WALStats degraded state: %+v", st)
	}

	s.Close() // error expected: the log is dead

	// Disk repaired: recovery replays the durable prefix and the store
	// is healthy again.
	dfs.Heal()
	s2 := openDurable(t, dir, wal.Fsync, WithWALFS(dfs))
	defer s2.Close()
	if deg, _ := s2.Degraded(); deg {
		t.Fatal("reopened store is degraded")
	}
	if v, ok, _ := s2.Get("stable"); !ok || string(v) != "before" {
		t.Fatalf("recovered value: %q %v", v, ok)
	}
	if err := s2.Set("after", []byte("healed")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestDegradedBatchRefusesWrites pins the degraded gate below the
// Fsync level, where no write waits for its record: once the fault has
// latched, Set, CounterAdd and Update are refused with ErrDegraded, and
// a read still sees the value from before the fault.
func TestDegradedBatchRefusesWrites(t *testing.T) {
	dfs := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, t.TempDir(), wal.Batch, WithWALFS(dfs))
	defer s.Close()

	if err := s.Set("stable", []byte("before")); err != nil {
		t.Fatal(err)
	}
	// At the Batch level a write is acknowledged before its record is
	// written: write this one's now, so the scripted fault fails the
	// next one's write and not this one's.
	if err := s.feed.log.Sync(); err != nil {
		t.Fatal(err)
	}
	dfs.FailNextWrite(fault.ErrIO)
	// This write's failed record is what latches the log.
	if err := s.Set("torn", []byte("during")); err != nil {
		t.Fatal(err)
	}
	if err := waitDegraded(t, s); !errors.Is(err, syscall.EIO) {
		t.Fatalf("degraded cause: got %v, want EIO", err)
	}

	if err := s.Set("stable", []byte("after")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Set: got %v, want ErrDegraded", err)
	}
	if _, err := s.CounterAdd("c", 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("CounterAdd: got %v, want ErrDegraded", err)
	}
	if err := s.Update([]string{"stable"}, func(tx *Txn) error { tx.Set("stable", []byte("after")); return nil }); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Update: got %v, want ErrDegraded", err)
	}
	if v, ok, err := s.Get("stable"); err != nil || !ok || string(v) != "before" {
		t.Fatalf("Get during degraded: %q %v %v", v, ok, err)
	}
	if st := s.WALStats(); !st.Degraded || st.ShedWrites != 0 {
		t.Fatalf("WALStats degraded state: %+v", st)
	}
}
