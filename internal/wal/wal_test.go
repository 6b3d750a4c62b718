package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testOps(i int) []Op {
	return []Op{
		{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Val: []byte(fmt.Sprintf("v%d", i))},
		{Kind: KindCounterSet, Key: "ctr", N: int64(i)},
	}
}

// replayAll recovers dir and returns the applied records in order.
func replayAll(t *testing.T, dir string) ([]Record, RecoverResult) {
	t.Helper()
	var recs []Record
	res, _, err := recoverDir(OSFS, dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return recs, res
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: KindSet, Key: "alpha", Val: []byte("value-1")},
		{Kind: KindSet, Key: "empty", Val: nil},
		{Kind: KindCounterAdd, Key: "hits", N: -17},
		{Kind: KindCounterSet, Key: "hits", N: 1 << 60},
		{Kind: KindDelete, Key: "gone"},
	}
	buf, err := AppendRecord(nil, 3, 42, ops)
	if err != nil {
		t.Fatal(err)
	}
	rec, n, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if rec.Shard != 3 || rec.Seq != 42 {
		t.Fatalf("stamp = (%d,%d), want (3,42)", rec.Shard, rec.Seq)
	}
	want := append([]Op(nil), ops...)
	want[1].Val = []byte{} // nil and empty are the same wire value
	if len(rec.Ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(rec.Ops), len(want))
	}
	for i := range want {
		got := rec.Ops[i]
		if got.Kind != want[i].Kind || got.Key != want[i].Key || got.N != want[i].N || !bytes.Equal(got.Val, want[i].Val) {
			t.Fatalf("op %d = %+v, want %+v", i, got, want[i])
		}
	}

	// Empty records round-trip too.
	buf2, err := AppendRecord(nil, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, err := DecodeRecord(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Seq != 7 || len(rec2.Ops) != 0 {
		t.Fatalf("empty record decoded to %+v", rec2)
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	buf, err := AppendRecord(nil, 1, 9, testOps(9))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point is a short record, never a panic.
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeRecord(buf[:n]); !errors.Is(err, ErrShortRecord) {
			t.Fatalf("truncated at %d: err = %v, want ErrShortRecord", n, err)
		}
	}
	// Every single-bit flip past the length prefix is corruption (a
	// flip inside the length prefix may also report short).
	for i := 0; i < len(buf); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << bit
			_, _, err := DecodeRecord(mut)
			if err == nil {
				t.Fatalf("flip byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestLogAppendRecover(t *testing.T) {
	for _, level := range []Level{None, Batch, Fsync} {
		t.Run(level.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{Level: level}, func(Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			for i := 1; i <= n; i++ {
				if err := l.Append(uint64(i), testOps(i)); err != nil {
					t.Fatal(err)
				}
			}
			if level == Fsync {
				if err := l.WaitDurable(n); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			recs, res := replayAll(t, dir)
			if res.LastSeq != n || len(recs) != n {
				t.Fatalf("recovered %d records to seq %d, want %d", len(recs), res.LastSeq, n)
			}
			for i, rec := range recs {
				if rec.Seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d", i, rec.Seq)
				}
			}
			if res.Truncated {
				t.Fatal("clean log reported a truncation")
			}
		})
	}
}

// TestChainWithNoRecordsFallsBackToSnapshot: damage that wipes every
// record of the surviving chain (here: the segment's first record is
// corrupt) must not strand recovery — the snapshot stands alone, and
// the empty segments are dropped so appending restarts consistently.
func TestChainWithNoRecordsFallsBackToSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var snapOps []Op
	for i := 1; i <= 10; i++ {
		snapOps = append(snapOps, testOps(i)...)
	}
	writeSnapshotOps(t, dir, 10, snapOps)
	// Corrupt the first record: the whole chain survives zero records.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, segHeaderLen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, res := replayAll(t, dir)
	if res.LastSeq != 10 || res.SnapshotSeq != 10 {
		t.Fatalf("recovered to seq %d (snapshot %d), want 10", res.LastSeq, res.SnapshotSeq)
	}
	if len(recs) == 0 {
		t.Fatal("snapshot not applied")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(left) != 0 {
		t.Fatalf("empty chain segments not dropped: %v", left)
	}
	// The log must extend cleanly from the snapshot.
	l2, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(11, testOps(11)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res = replayAll(t, dir)
	if res.LastSeq != 11 {
		t.Fatalf("after re-append, recovered to %d, want 11", res.LastSeq)
	}
	_ = recs
}

func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var m Metrics
	l, _, err := Open(dir, Options{Level: Fsync, Metrics: &m}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent committers with externally sequenced appends: the
	// batcher must coalesce them into far fewer fsyncs than records.
	const n = 400
	var (
		mu   sync.Mutex
		seq  uint64
		wg   sync.WaitGroup
		fail error
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				mu.Lock()
				seq++
				s := seq
				err := l.Append(s, testOps(int(s)))
				mu.Unlock()
				if err == nil {
					err = l.WaitDurable(s)
				}
				if err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Appends != n {
		t.Fatalf("Appends = %d, want %d", snap.Appends, n)
	}
	if snap.Fsyncs == 0 || snap.Fsyncs >= n {
		t.Fatalf("Fsyncs = %d: group commit should need more than zero and fewer than %d", snap.Fsyncs, n)
	}
	if snap.Batches == 0 || snap.Bytes == 0 || snap.AppendNs.Count == 0 || snap.FsyncNs.Count == 0 {
		t.Fatalf("write-side metrics not recorded: %+v", snap)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: drop the last 7 bytes.
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	var m Metrics
	var recs []Record
	res, _, err := recoverDir(OSFS, dir, func(r Record) error { recs = append(recs, r); return nil }, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.TruncatedBytes == 0 {
		t.Fatalf("truncation not reported: %+v", res)
	}
	if res.LastSeq != 19 || len(recs) != 19 {
		t.Fatalf("recovered to seq %d with %d records, want 19", res.LastSeq, len(recs))
	}
	if m.Truncations.Load() != 1 {
		t.Fatalf("Truncations = %d, want 1", m.Truncations.Load())
	}

	// The repaired log accepts appends at the truncated position.
	l2, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(20, testOps(20)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, res2 := replayAll(t, dir)
	if res2.LastSeq != 20 || len(recs2) != 20 || res2.Truncated {
		t.Fatalf("after repair+append: %d records to seq %d (truncated=%v)", len(recs2), res2.LastSeq, res2.Truncated)
	}
}

func TestRotationAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	var m Metrics
	l, _, err := Open(dir, Options{
		Level:        Fsync,
		SegmentBytes: 256, // rotate constantly
		Metrics:      &m,
	}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 1; i <= n; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the rotations' checkpoints.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Rotations.Load() == 0 {
		t.Fatal("no rotations at a 256-byte segment size")
	}
	if m.Checkpoints.Load() == 0 || m.CheckpointFails.Load() != 0 {
		t.Fatalf("%d checkpoints, %d failed", m.Checkpoints.Load(), m.CheckpointFails.Load())
	}
	snaps, segs, err := listDir(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("%d snapshots after the rotations, want 1 or 2", len(snaps))
	}
	newest := snaps[len(snaps)-1].seq

	// Recovery splices the newest snapshot, chunks stamped at its
	// sequence, and the records after it, to the exact state at n.
	recs, res := replayAll(t, dir)
	if res.SnapshotSeq != newest || res.LastSeq != n {
		t.Fatalf("recovered to %d via snapshot %d, want %d via %d", res.LastSeq, res.SnapshotSeq, n, newest)
	}
	final := make(map[string]Folded)
	for i, rec := range recs {
		if want := newest + uint64(max(0, i-res.SnapshotRecords+1)); rec.Seq != want {
			t.Fatalf("applied record %d has seq %d, want %d", i, rec.Seq, want)
		}
		for j := range rec.Ops {
			if err := Fold(final, Folded{Op: &rec.Ops[j]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(final) != n+1 || final["ctr"].Op.N != n || string(final["k7"].Op.Val) != "v7" {
		t.Fatalf("recovered %d keys, ctr %d, k7 %q", len(final), final["ctr"].Op.N, final["k7"].Op.Val)
	}
	// Segments wholly covered by the older kept snapshot are pruned.
	for _, sg := range segs {
		if next := segAfter(segs, sg.seq); next != 0 && next <= snaps[0].seq+1 {
			t.Fatalf("segment %d not pruned (next starts at %d, oldest snapshot %d)", sg.seq, next, snaps[0].seq)
		}
	}
}

// gateFS holds every snapshot's temp file, once created, until release
// is closed, reporting each on entered when it has room.
type gateFS struct {
	FS
	entered chan struct{}
	release chan struct{}
}

func (g gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err == nil && strings.HasSuffix(name, ".snap.tmp") {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	return f, err
}

// TestCloseWaitsForRotationCheckpoint: a rotation's checkpoint runs on
// its own goroutine, and Close returns only after it has finished — its
// snapshot installed — so nothing of the log writes to the directory
// once Close is back.
func TestCloseWaitsForRotationCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := gateFS{FS: OSFS, entered: make(chan struct{}, 64), release: make(chan struct{})}
	l, _, err := Open(dir, Options{Level: Fsync, SegmentBytes: 256, FS: g}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	<-g.entered // a rotation's checkpoint is creating its snapshot
	closed := make(chan error)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a rotation checkpoint in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	snaps, _, err := listDir(OSFS, dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot once Close returned: %v, %v", snaps, err)
	}
}

// segAfter returns the firstSeq of the segment following the one at
// firstSeq, or 0 if it is the last.
func segAfter(segs []fileInfo, firstSeq uint64) uint64 {
	for i, sg := range segs {
		if sg.seq == firstSeq && i+1 < len(segs) {
			return segs[i+1].seq
		}
	}
	return 0
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	writeSnapshotOps(t, dir, 5, []Op{{Kind: KindSet, Key: "snap", Val: []byte("state")}})
	// Flip a byte inside the snapshot body.
	path := filepath.Join(dir, snapshotName(5))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, res := replayAll(t, dir)
	if res.SnapshotSeq != 0 {
		t.Fatalf("used corrupt snapshot (seq %d)", res.SnapshotSeq)
	}
	if res.LastSeq != 10 || len(recs) != 10 {
		t.Fatalf("full-log fallback recovered %d records to seq %d", len(recs), res.LastSeq)
	}
}

func TestLevelParse(t *testing.T) {
	for _, l := range []Level{None, Batch, Fsync} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("always"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

// TestFuzzySnapshotCarriesItsTail: a snapshot of an earlier version,
// read between log positions 25 and 30, carries records 26..30, so it
// recovers to the exact state at 30 — with the log intact, and with the
// log cut below 30, where the chain alone could not say what the read
// state means.
func TestFuzzySnapshotCarriesItsTail(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 40)
	writeCarriedSnapshot(t, dir, 25, 30, []Op{{Kind: KindSet, Key: "read", Val: []byte("between 25 and 30")}})
	recs, res := replayAll(t, dir)
	if res.SnapshotSeq != 30 || res.LastSeq != 40 {
		t.Fatalf("recovered to %d via snapshot %d, want 40 via 30", res.LastSeq, res.SnapshotSeq)
	}
	var seqs []uint64
	for _, rec := range recs {
		seqs = append(seqs, rec.Seq)
	}
	if want := []uint64{25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("applied %v, want %v", seqs, want)
	}

	// Cut the log inside the snapshot's tail: the snapshot supersedes
	// the chain and still ends exactly at 30.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderLen
	for seq := 1; seq <= 28; seq++ {
		_, n, err := DecodeRecord(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := os.Truncate(seg, int64(off)); err != nil {
		t.Fatal(err)
	}
	recs, res = replayAll(t, dir)
	if res.SnapshotSeq != 30 || res.LastSeq != 30 || len(recs) != 6 || recs[5].Seq != 30 {
		t.Fatalf("after the cut: %d records to %d via snapshot %d, want 6 to 30 via 30", len(recs), res.LastSeq, res.SnapshotSeq)
	}
}

// floorFS is the real filesystem with every fsync padded to a floor: the
// device model of the benchmark's durable-write-fsync2ms workload.
type floorFS struct {
	FS
	floor time.Duration
}

type floorFile struct {
	File
	floor time.Duration
}

func (f floorFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return floorFile{file, f.floor}, nil
}

func (f floorFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	time.Sleep(f.floor - time.Since(t0))
	return err
}

// groupCommit runs 16 writers, each appending n records to one log at
// level and — at Fsync — waiting for each to be durable, over a 2 ms
// fsync floor. It returns the log's metrics before Close and how long
// the writers took.
func groupCommit(t *testing.T, level Level, n int) (MetricsSnapshot, time.Duration) {
	t.Helper()
	dir := t.TempDir()
	fsys := floorFS{OSFS, 2 * time.Millisecond}
	var m Metrics
	l, _, err := Open(dir, Options{Level: level, Metrics: &m, FS: fsys}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		mu  sync.Mutex
		seq uint64
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				mu.Lock()
				seq++
				s := seq
				err := l.Append(s, testOps(int(s)))
				mu.Unlock()
				if err == nil && level == Fsync {
					err = l.WaitDurable(s)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return m.Snapshot(), time.Since(t0)
}

// TestGroupCommitSharesFsyncs pins the batcher rule at the Fsync level:
// the committers an fsync releases append again before the next batch
// is captured, so 16 writers share nearly every fsync (15.5–16 records a
// fsync here, with or without -race). A batcher that captures at once
// alternates one-record and fifteen-record fsyncs: 8.0. The Batch and
// None levels do not wait: Batch fsyncs on its interval, None never.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	m, _ := groupCommit(t, Fsync, 40)
	per := float64(m.Appends) / float64(m.Fsyncs)
	t.Logf("Fsync level: %.1f records a fsync", per)
	if per < 12 {
		t.Errorf("Fsync level: %d records over %d fsyncs, %.1f a fsync, want at least 12", m.Appends, m.Fsyncs, per)
	}
	m, took := groupCommit(t, Batch, 200)
	if most := int64(took/flushInterval) + 2; m.Fsyncs > uint64(most) {
		t.Errorf("Batch level: %d fsyncs in %v, want at most %d at a %v interval", m.Fsyncs, took, most, flushInterval)
	}
	if m, _ = groupCommit(t, None, 200); m.Fsyncs != 0 {
		t.Errorf("None level: %d fsyncs, want none", m.Fsyncs)
	}
}

// TestScanBesideCheckpoint: a catch-up scan and a snapshot listing run
// beside a checkpoint writing its temp file, and must leave that file
// alone; only recovery removes temp files, and it does.
func TestScanBesideCheckpoint(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 10)
	g := gateFS{OSFS, make(chan struct{}, 1), make(chan struct{})}
	done := make(chan error)
	go func() { _, err := checkpoint(g, dir, 10); done <- err }()
	<-g.entered
	if _, err := dirLog(dir).Scan(1, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dirLog(dir).Snapshot(); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint beside a scan: %v", err)
	}

	tmp := filepath.Join(dir, snapshotName(11)+".tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	replayAll(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("recovery left the temp file: %v", err)
	}
}

// dirLog is a Log over dir that is never opened: its Scan and Snapshot
// read dir's files as an open log's would.
func dirLog(dir string) *Log { return &Log{dir: dir, fs: OSFS} }
