// Sticky-failure latching, pinned through the fault-injection seam:
// every append/sync error path fails the Log exactly once, the failure
// is reported (Err, WaitDurable, Sync, Metrics.Failures), further
// appends are refused with the original error, and recovery over the
// healed directory comes back clean. External test package: fault
// imports wal, so these tests cannot live in package wal.
package wal_test

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"modtx/internal/fault"
	"modtx/internal/wal"
)

// openFaultLog recovers dir and opens its log over fsys at the Fsync
// level with metrics attached.
func openFaultLog(t *testing.T, fsys wal.FS, dir string, m *wal.Metrics) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{Level: wal.Fsync, Metrics: m, FS: fsys}, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *wal.Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(seq, []wal.Op{{Kind: wal.KindSet, Key: "k", Val: []byte("v")}}); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

// TestLatchWriteError: a failed write(2) latches and every surface
// reports it.
func TestLatchWriteError(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{})
	var m wal.Metrics
	l := openFaultLog(t, dfs, dir, &m)

	appendN(t, l, 1, 3)
	if err := l.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}

	dfs.FailNextWrite(fault.ErrIO)
	appendN(t, l, 4, 4) // queues fine; the batcher hits the fault
	if err := l.WaitDurable(4); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable after write fault: %v", err)
	}
	if err := l.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err: %v", err)
	}
	// Latched: appends are refused with the original error, and the
	// failure counted once.
	if err := l.Append(5, nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after latch: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync after latch: %v", err)
	}
	if got := m.Failures.Load(); got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
	l.Close()

	// Reopen over the healed disk: the durable prefix (1..3) survives.
	dfs.Heal()
	var recs []wal.Record
	l2, res, err := wal.Open(dir, wal.Options{Level: wal.Fsync, Metrics: &m, FS: dfs}, func(r wal.Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatalf("recover after heal: %v", err)
	}
	defer l2.Close()
	if res.LastSeq != 3 || len(recs) != 3 {
		t.Fatalf("recovered LastSeq=%d records=%d, want 3/3", res.LastSeq, len(recs))
	}
	appendN(t, l2, 4, 4)
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after reopen: %v", err)
	}
}

// TestLatchSyncError: a failed fsync latches the same way.
func TestLatchSyncError(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{})
	var m wal.Metrics
	l := openFaultLog(t, dfs, dir, &m)
	defer l.Close()

	appendN(t, l, 1, 2)
	if err := l.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	dfs.FailNextSync(fault.ErrIO)
	appendN(t, l, 3, 3)
	if err := l.WaitDurable(3); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable after sync fault: %v", err)
	}
	if err := l.Append(4, nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after latch: %v", err)
	}
	if got := m.Failures.Load(); got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
}

// TestLatchTornWrite: a torn write latches, and recovery repairs the
// tail down to the durable prefix.
func TestLatchTornWrite(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{})
	var m wal.Metrics
	l := openFaultLog(t, dfs, dir, &m)

	appendN(t, l, 1, 5)
	if err := l.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	dfs.TearNextWrite()
	appendN(t, l, 6, 6)
	if err := l.WaitDurable(6); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable after torn write: %v", err)
	}
	l.Close()

	dfs.Heal()
	var recs []wal.Record
	l2, res, err := wal.Open(dir, wal.Options{Level: wal.Fsync, Metrics: &m, FS: dfs}, func(r wal.Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatalf("recover after torn write: %v", err)
	}
	defer l2.Close()
	if res.LastSeq != 5 || len(recs) != 5 {
		t.Fatalf("recovered LastSeq=%d records=%d, want 5/5", res.LastSeq, len(recs))
	}
	if !res.Truncated {
		t.Fatal("torn tail was not truncated")
	}
}

// TestLatchENOSPC: a full disk (write budget) latches with ENOSPC and
// the OnFail hook fires exactly once, promptly.
func TestLatchENOSPC(t *testing.T) {
	dir := t.TempDir()
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{WriteBudget: 256})
	var m wal.Metrics

	failed := make(chan error, 1)
	l, _, err := wal.Open(dir, wal.Options{
		Level: wal.Fsync, Metrics: &m, FS: dfs,
		OnFail: func(e error) { failed <- e },
	}, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	defer l.Close()

	big := make([]byte, 512)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(seq, []wal.Op{{Kind: wal.KindSet, Key: "k", Val: big}}); err != nil {
			break // latched mid-loop: exactly what we want
		}
		if l.WaitDurable(seq) != nil {
			break
		}
	}
	select {
	case err := <-failed:
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("OnFail error: %v, want ENOSPC", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnFail never fired")
	}
	if err := l.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err: %v, want ENOSPC", err)
	}
}

// TestLatchOutOfOrderAppend: the caller-side error path (a skipped
// sequence) latches too — a broken chain is a broken chain.
func TestLatchOutOfOrderAppend(t *testing.T) {
	dir := t.TempDir()
	var m wal.Metrics
	l := openFaultLog(t, wal.OSFS, dir, &m)
	defer l.Close()

	appendN(t, l, 1, 1)
	if err := l.Append(3, nil); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	// Even the valid next sequence is refused now.
	if err := l.Append(2, nil); err == nil {
		t.Fatal("append after out-of-order latch accepted")
	}
	if got := m.Failures.Load(); got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
}
