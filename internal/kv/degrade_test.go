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

// TestDegradedReadOnly pins the readonly policy end to end: a scripted
// disk fault latches the WAL, the store flips degraded, writes bounce
// with ErrDegraded while reads keep serving, and reopening over the
// healed disk recovers the durable prefix cleanly.
func TestDegradedReadOnly(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, dir, wal.Fsync, WithWALFS(dfs), WithDegradedMode(DegradeReadOnly))

	if err := s.Set("stable", []byte("before")); err != nil {
		t.Fatal(err)
	}

	dfs.FailNextWrite(fault.ErrIO)
	// This write commits in memory but its append dies; at the Fsync
	// level that surfaces here, dressed as ErrDegraded by the policy.
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
	if !st.Degraded || st.DegradedMode != "readonly" || st.Err == "" {
		t.Fatalf("WALStats degraded state: %+v", st)
	}

	s.Close() // error expected: the log is dead

	// Disk repaired: recovery replays the durable prefix and the store
	// is healthy again.
	dfs.Heal()
	s2 := openDurable(t, dir, wal.Fsync, WithWALFS(dfs), WithDegradedMode(DegradeReadOnly))
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

// TestDegradedShed pins the shed-durability policy: after the fault the
// store keeps acknowledging writes from memory, counting every commit
// the dead log refused, and reads see the shed writes.
func TestDegradedShed(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, dir, wal.Fsync, WithWALFS(dfs), WithDegradedMode(DegradeShed))

	if err := s.Set("stable", []byte("before")); err != nil {
		t.Fatal(err)
	}
	dfs.FailNextWrite(fault.ErrDiskFull)
	// The policy swallows the failure: the commit stands in memory.
	// Subsequent writes go to the same key — same shard, same dead log
	// — so each one is a commit the log refused.
	if err := s.Set("shed", []byte("v")); err != nil {
		t.Fatalf("write during fault: %v (shed mode must not fail writes)", err)
	}
	if err := waitDegraded(t, s); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("degraded cause: got %v, want ENOSPC", err)
	}

	for i := 0; i < 8; i++ {
		if err := s.Set("shed", []byte{byte(i)}); err != nil {
			t.Fatalf("shed write %d: %v", i, err)
		}
	}
	if v, ok, _ := s.Get("shed"); !ok || v[0] != 7 {
		t.Fatalf("shed writes not readable: %q %v", v, ok)
	}

	st := s.WALStats()
	if !st.Degraded || st.DegradedMode != "shed-durability" {
		t.Fatalf("WALStats degraded state: %+v", st)
	}
	if st.ShedWrites == 0 {
		t.Fatal("ShedWrites = 0, want > 0: sheds must be counted")
	}

	s.Close()

	// Reopen over the healed disk: the durable prefix survives; the
	// shed writes were the traded-away durability.
	dfs.Heal()
	s2 := openDurable(t, dir, wal.Fsync, WithWALFS(dfs), WithDegradedMode(DegradeShed))
	defer s2.Close()
	if v, ok, _ := s2.Get("stable"); !ok || string(v) != "before" {
		t.Fatalf("recovered value: %q %v", v, ok)
	}
}

// TestDegradedFailDefault pins the default policy: no gate, the sticky
// WAL error itself keeps surfacing on acknowledged writes.
func TestDegradedFailDefault(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, dir, wal.Fsync, WithWALFS(dfs))
	defer s.Close()

	dfs.FailNextWrite(fault.ErrIO)
	if err := s.Set("a", []byte("v")); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("got %v, want the raw sticky WAL error", err)
	}
	waitDegraded(t, s)
	// The fault latched the log, and fail mode keeps surfacing it.
	if err := s.Set("a", []byte("v")); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("later write: got %v, want the raw sticky WAL error", err)
	}
}

func TestParseDegradedMode(t *testing.T) {
	for _, m := range []DegradedMode{DegradeFail, DegradeReadOnly, DegradeShed} {
		got, err := ParseDegradedMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round-trip %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseDegradedMode("nope"); err == nil {
		t.Fatal("ParseDegradedMode accepted garbage")
	}
}
