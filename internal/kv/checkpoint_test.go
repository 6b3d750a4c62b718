package kv

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"modtx/internal/fault"
	"modtx/internal/wal"
)

// TestCheckpointEqualsLogOnlyRecovery: a checkpoint holds what the log
// holds and nothing else. The store has keys EnsureKeys linked and
// nobody wrote, and a Privatize'd key given a plain store and never
// published. Neither is in the log, so a recovery from the log alone
// lacks both; a checkpoint taken before Close must not make either
// durable.
func TestCheckpointEqualsLogOnlyRecovery(t *testing.T) {
	recovered := func(t *testing.T, checkpoint bool) map[string]string {
		dir := t.TempDir()
		s := openDurable(t, dir, wal.None)
		s.EnsureKeys("e1", "e2")
		if err := s.Set("w", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Set("p", []byte("old")); err != nil {
			t.Fatal(err)
		}
		h, err := s.Privatize("p")
		if err != nil {
			t.Fatal(err)
		}
		h[0].Store([]byte("plain")) // never published
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := openDurable(t, dir, wal.None)
		defer r.Close()
		return storeState(r)
	}
	want := recovered(t, false)
	sameState(t, "log-only recovery", want, map[string]string{"w": "bytes x", "p": "bytes old"})
	sameState(t, "checkpoint then recovery", recovered(t, true), want)
}

// dirNames lists dir's file names, in order.
func dirNames(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return strings.Join(names, " ")
}

// TestCheckpointFaultsThroughFS: a checkpoint reads and writes through
// the log's filesystem seam, so a fault there fails it. Each failure is
// counted, leaves the previous snapshot and the segments as they were,
// and a reopen recovers exactly what was written. The faults: the read
// of the segment (no snapshot yet), the snapshot's create, and its
// write.
func TestCheckpointFaultsThroughFS(t *testing.T) {
	dir := t.TempDir()
	d := fault.NewDiskFS(nil, fault.DiskPlan{})
	s := openDurable(t, dir, wal.None, WithWALFS(d))
	want := map[string]string{}
	set := func(from, to int, val string) {
		t.Helper()
		for i := from; i < to; i++ {
			k := fmt.Sprintf("key-%03d", i)
			if err := s.Set(k, []byte(val)); err != nil {
				t.Fatal(err)
			}
			want[k] = "bytes " + val
		}
	}
	fails := func(what string, n uint64, script func()) {
		t.Helper()
		before := dirNames(t, dir)
		script()
		if err := s.Checkpoint(); err == nil {
			t.Fatalf("%s: the checkpoint succeeded", what)
		}
		if got := s.WALStats().CheckpointFails; got != n {
			t.Fatalf("%s: %d checkpoint failures counted, want %d", what, got, n)
		}
		if after := dirNames(t, dir); after != before {
			t.Fatalf("%s: the directory went from %q to %q", what, before, after)
		}
	}

	set(0, 40, "a")
	fails("segment read", 1, func() { d.FailNextRead(fault.ErrIO) })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	set(20, 60, "b")
	fails("snapshot create", 2, func() { d.FailNextOpen(fault.ErrIO) })
	fails("snapshot write", 3, func() { d.FailNextWrite(fault.ErrIO) })
	if st := d.Stats(); st.ReadErrs != 1 || st.OpenErrs != 1 || st.WriteErrs != 1 {
		t.Fatalf("the seam saw %+v, want one read, open and write fault", st)
	}
	if deg, err := s.Degraded(); deg {
		t.Fatalf("a checkpoint fault failed the log: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, wal.None)
	defer r.Close()
	sameState(t, "reopened", storeState(r), want)
	if info := r.WALStats().Recover; info.Snapshots != 1 || info.Records != 40 {
		t.Fatalf("recovered %+v, want the first snapshot and the 40 records after it", info)
	}
}
