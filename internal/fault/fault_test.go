package fault

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"modtx/internal/wal"
)

func openFile(t *testing.T, d *DiskFS, name string) wal.File {
	t.Helper()
	f, err := d.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestDiskScripted pins the one-shot fault scripts: each fires exactly
// once, in FIFO order, against the next matching operation.
func TestDiskScripted(t *testing.T) {
	d := NewDiskFS(wal.OSFS, DiskPlan{})
	f := openFile(t, d, filepath.Join(t.TempDir(), "log"))

	d.FailNextWrite(ErrIO)
	if _, err := f.Write([]byte("doomed")); !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("scripted write error: %v", err)
	}
	if _, err := f.Write([]byte("fine")); err != nil {
		t.Fatalf("one-shot leaked into the next write: %v", err)
	}

	d.FailNextSync(ErrIO)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted sync error: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("one-shot leaked into the next sync: %v", err)
	}

	d.FailNextOpen(ErrIO)
	if _, err := d.OpenFile(filepath.Join(t.TempDir(), "x"), os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted open error: %v", err)
	}

	s := d.Stats()
	if s.WriteErrs != 1 || s.SyncErrs != 1 || s.OpenErrs != 1 || s.Total() != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDiskTornWrite pins the torn-write shape: a strict prefix of at
// least one byte lands, the call errors, and the bytes on disk match
// the reported short count.
func TestDiskTornWrite(t *testing.T) {
	d := NewDiskFS(wal.OSFS, DiskPlan{})
	path := filepath.Join(t.TempDir(), "log")
	f := openFile(t, d, path)

	payload := []byte("0123456789abcdef")
	d.TearNextWrite()
	n, err := f.Write(payload)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write did not error: n=%d err=%v", n, err)
	}
	if n < 1 || n >= len(payload) {
		t.Fatalf("torn write landed %d of %d bytes; want a strict prefix >= 1", n, len(payload))
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(b) != string(payload[:n]) {
		t.Fatalf("on disk %q, reported prefix %q", b, payload[:n])
	}
	if s := d.Stats(); s.TornWrite != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDiskWriteBudget pins the disk-full story: writes succeed until
// the byte budget is spent, then every write fails ENOSPC until Heal.
func TestDiskWriteBudget(t *testing.T) {
	d := NewDiskFS(wal.OSFS, DiskPlan{WriteBudget: 10})
	f := openFile(t, d, filepath.Join(t.TempDir(), "log"))

	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("over budget: %v", err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("disk-full is not sticky: %v", err)
	}
	d.Heal()
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("healed disk still failing: %v", err)
	}
	if s := d.Stats(); s.ENOSPC != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDiskDeterministic pins the seed contract: two DiskFS with the
// same plan inject faults at exactly the same call indices.
func TestDiskDeterministic(t *testing.T) {
	run := func() []int {
		d := NewDiskFS(wal.OSFS, DiskPlan{Seed: 42, WriteErrProb: 0.2})
		f := openFile(t, d, filepath.Join(t.TempDir(), "log"))
		var failed []int
		for i := 0; i < 100; i++ {
			if _, err := f.Write([]byte("abc")); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("0.2 write-error probability injected nothing in 100 writes")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules diverge: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestNetPartition pins the partition switch: it kills live wrapped
// conns, refuses operations on both wrapped conns and dials while on,
// counts each refusal, and lifts cleanly.
func TestNetPartition(t *testing.T) {
	n := NewNet(NetPlan{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64)
				for {
					k, err := c.Read(buf)
					if err != nil {
						return
					}
					c.Write(buf[:k])
				}
			}()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := n.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}

	n.Partition(true)
	if _, err := c.Write([]byte("no")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("write through partition: %v", err)
	}
	if _, err := n.Dial(ctx, "tcp", l.Addr().String()); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial through partition: %v", err)
	}
	if s := n.Stats(); s.Partitions < 2 {
		t.Fatalf("stats: %+v", s)
	}

	n.Partition(false)
	c2, err := n.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial after partition lifted: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("write after partition lifted: %v", err)
	}
}
