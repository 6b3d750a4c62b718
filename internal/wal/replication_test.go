package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// Tests for the replication-facing WAL surface: snapshot-supersedes-
// chain recovery, segment-cursor catch-up reads, and the live-tail
// follower.

// writeSegFile writes one complete segment file holding records
// first..last, bypassing the Log so the segment boundary is exact.
func writeSegFile(t *testing.T, dir string, first, last uint64) {
	t.Helper()
	buf := make([]byte, 0, 4096)
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], first)
	buf = append(buf, hdr[:]...)
	for seq := first; seq <= last; seq++ {
		var err error
		buf, err = AppendRecord(buf, 0, seq, testOps(int(seq)))
		if err != nil {
			t.Fatal(err)
		}
	}
	name := filepath.Join(dir, fmt.Sprintf("seg-%020d.wal", first))
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSnapshotOps writes the snapshot exact at seq holding ops, folded.
func writeSnapshotOps(t *testing.T, dir string, seq uint64, ops []Op) {
	t.Helper()
	final := make(map[string]Folded)
	for i := range ops {
		if err := Fold(final, Folded{Op: &ops[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnapshot(OSFS, dir, seq, final); err != nil {
		t.Fatal(err)
	}
}

// writeCarriedSnapshot hand-builds a snapshot the way earlier versions
// wrote one, from a read of the store between log positions from and
// through: state's chunk stamped from, then the log's own records
// from+1..through copied after it.
func writeCarriedSnapshot(t *testing.T, dir string, from, through uint64, state []Op) {
	t.Helper()
	buf := make([]byte, snapHeaderLen)
	copy(buf[:8], snapMagic)
	binary.LittleEndian.PutUint64(buf[8:16], from)
	binary.LittleEndian.PutUint64(buf[16:24], through)
	buf, err := AppendRecord(buf, 0, from, state)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirLog(dir).Scan(from+1, func(seq uint64, raw []byte) error {
		if seq <= through {
			buf = append(buf, raw...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(through)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeChain appends records 1..n at Fsync and closes the log.
func writeChain(t *testing.T, dir string, n int) {
	t.Helper()
	l, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSupersedesDamagedChain pins the last-resort recovery
// rule the crash-recovery torture exposed: when compaction has pruned
// the chain's early segments (so it no longer reaches seq 1) and
// mid-log damage then truncates it below the oldest retained
// snapshot, the newest snapshot is still a valid commit prefix and
// must stand alone instead of recovery failing. It also pins the
// preference order: when the chain survives far enough for a snapshot
// to anchor it, the chain is kept rather than superseded.
func TestSnapshotSupersedesDamagedChain(t *testing.T) {
	dir := t.TempDir()
	// Build the chain segment by segment (rotation is batch-granular,
	// so driving the Log cannot pin segment boundaries): three segments
	// holding 1..10, 11..20, 21..30, then a snapshot at 30.
	writeSegFile(t, dir, 1, 10)
	writeSegFile(t, dir, 11, 20)
	writeSegFile(t, dir, 21, 30)
	var ops []Op
	for i := 1; i <= 30; i++ {
		ops = append(ops, testOps(i)...)
	}
	writeSnapshotOps(t, dir, 30, ops)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 3 {
		t.Fatalf("want 3 segments for the middle-segment cut, have %v (%v)", segs, err)
	}
	sort.Strings(segs)

	// Preference check first: with the chain intact, the snapshot
	// anchors it — recovery keeps the segments.
	_, r := replayAll(t, dir)
	if r.SnapshotSeq != 30 || r.LastSeq != 30 {
		t.Fatalf("intact recovery: snapshot %d to %d, want 30/30", r.SnapshotSeq, r.LastSeq)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(left) == 0 {
		t.Fatal("anchored chain was dropped")
	}

	// Now leave only a middle segment: early ones compacted away, the
	// tail destroyed. The surviving chain starts above seq 1 and ends
	// below 30 — only the superseding snapshot can recover this.
	for i, sg := range segs {
		if i == len(segs)-2 {
			continue
		}
		if err := os.Remove(sg); err != nil {
			t.Fatal(err)
		}
	}
	recs, res2 := replayAll(t, dir)
	if res2.SnapshotSeq != 30 || res2.LastSeq != 30 {
		t.Fatalf("recovered to %d via snapshot %d, want 30/30", res2.LastSeq, res2.SnapshotSeq)
	}
	if len(recs) == 0 {
		t.Fatal("snapshot not applied")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(left) != 0 {
		t.Fatalf("superseded chain not dropped: %v", left)
	}
	// And the log extends cleanly from the snapshot.
	l, _, err := Open(dir, Options{Level: Fsync}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(31, testOps(31)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res2 = replayAll(t, dir)
	if res2.LastSeq != 31 {
		t.Fatalf("after extend, recovered to %d, want 31", res2.LastSeq)
	}
}

func TestScanSegments(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 25)

	var seen []uint64
	next, err := dirLog(dir).Scan(10, func(seq uint64, raw []byte) error {
		seen = append(seen, seq)
		rec, n, err := DecodeRecord(raw)
		if err != nil || n != len(raw) || rec.Seq != seq {
			t.Fatalf("raw bytes of %d: decoded seq %d, %d of %d bytes, %v", seq, rec.Seq, n, len(raw), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 26 || len(seen) != 16 || seen[0] != 10 || seen[15] != 25 {
		t.Fatalf("scan from 10: next %d, seen %v", next, seen)
	}
	// From beyond the end: nothing, cleanly.
	next, err = dirLog(dir).Scan(26, func(uint64, []byte) error {
		t.Fatal("unexpected record")
		return nil
	})
	if err != nil || next != 26 {
		t.Fatalf("scan from 26: next %d, %v", next, err)
	}
	// Empty dir: nothing, cleanly.
	next, err = dirLog(t.TempDir()).Scan(1, func(uint64, []byte) error { return nil })
	if err != nil || next != 1 {
		t.Fatalf("scan of empty dir: next %d, %v", next, err)
	}
}

func TestScanSegmentsCompacted(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 10)
	var ops []Op
	for i := 1; i <= 10; i++ {
		ops = append(ops, testOps(i)...)
	}
	writeSnapshotOps(t, dir, 10, ops)
	// Remove the segments as compaction would.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, sg := range segs {
		if err := os.Remove(sg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dirLog(dir).Scan(1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("scan of compacted range: %v, want ErrCompacted", err)
	}
	seq, recs, err := dirLog(dir).Snapshot()
	if err != nil || seq != 10 || len(recs) == 0 {
		t.Fatalf("Snapshot: seq %d, %d recs, %v", seq, len(recs), err)
	}
}

func TestFollowerLiveTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: None}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	f, low, err := l.Follow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if low != 1 {
		t.Fatalf("low water %d on an empty log, want 1", low)
	}
	const n = 40
	var wg sync.WaitGroup
	wg.Add(1)
	var got []uint64
	go func() {
		defer wg.Done()
		var buf []byte
		for len(got) < n {
			b, first, ok := f.Take(buf)
			if !ok {
				return
			}
			seq := first
			for off := 0; off < len(b); {
				rec, sz, derr := DecodeRecord(b[off:])
				if derr != nil || rec.Seq != seq {
					t.Errorf("batch decode: %v (seq %d vs %d)", derr, rec.Seq, seq)
					return
				}
				got = append(got, rec.Seq)
				seq++
				off += sz
			}
			buf = b
		}
	}()
	for i := 1; i <= n; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("follower saw %d records, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, seq)
		}
	}
}

func TestFollowerOverflowDies(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: None}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f, _, err := l.Follow(1) // floor-clamped, but tiny intent: overflow fast
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	big := make([]byte, 96<<10)
	for i := 1; i <= 1024; i++ {
		if err := l.Append(uint64(i), []Op{{Kind: KindSet, Key: "k", Val: big}}); err != nil {
			t.Fatal(err)
		}
	}
	// The follower was never drained: it must be dead, not unbounded.
	if _, _, ok := f.Take(nil); ok {
		t.Fatal("overflowed follower returned data")
	}
}

func TestFollowerClosesWithLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Level: None}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := l.Follow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Take(nil) // blocks until the log dies
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// heldFS is the real filesystem, except that the first Write after
// armed is closed blocks until release is closed: one batch stays in
// flight.
type heldFS struct {
	osFS
	armed   chan struct{}
	entered chan []byte // receives the held write's bytes
	release chan struct{}
	hold    sync.Once
}

type heldFile struct {
	File
	fs *heldFS
}

func (h *heldFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := h.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return heldFile{f, h}, nil
}

func (f heldFile) Write(p []byte) (int, error) {
	select {
	case <-f.fs.armed:
		f.fs.hold.Do(func() {
			f.fs.entered <- append([]byte(nil), p...)
			<-f.fs.release
		})
	default:
	}
	return f.File.Write(p)
}

// TestFollowAttachDuringWrite: a follower attached while the batcher's
// write is in flight starts at that batch. Its mark is the batch's
// first sequence, its first Take holds the batch, and the segment
// files end exactly at the mark — nothing between the files and the
// follower is missing, so a streamer needs no rescan and no wait.
func TestFollowAttachDuringWrite(t *testing.T) {
	dir := t.TempDir()
	fsys := &heldFS{armed: make(chan struct{}), entered: make(chan []byte, 1), release: make(chan struct{})}
	l, _, err := Open(dir, Options{Level: None, FS: fsys}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	close(fsys.armed)
	if err := l.Append(4, testOps(4)); err != nil {
		t.Fatal(err)
	}
	held := <-fsys.entered // the batch holding 4 is in write(2)
	released := false
	defer func() {
		if !released {
			close(fsys.release)
		}
	}()
	for i := 5; i <= 6; i++ { // queued behind the held batch
		if err := l.Append(uint64(i), testOps(i)); err != nil {
			t.Fatal(err)
		}
	}

	f, low, err := l.Follow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if low != 4 {
		t.Fatalf("mark %d with the batch from 4 in flight, want 4", low)
	}
	b, first, ok := f.Take(nil)
	if !ok || first != 4 || len(b) < len(held) || string(b[:len(held)]) != string(held) {
		t.Fatalf("first Take: ok %v, first %d, %d bytes; want the held batch (%d bytes) from 4", ok, first, len(b), len(held))
	}
	var seqs []uint64
	for off := 0; off < len(b); {
		seq, n, err := WalkRecord(b[off:], nil)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
		off += n
	}
	if fmt.Sprint(seqs) != "[4 5 6]" {
		t.Fatalf("first Take holds %v, want [4 5 6]", seqs)
	}

	scan := func() uint64 {
		next, err := dirLog(dir).Scan(1, func(uint64, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	if next := scan(); next != low {
		t.Fatalf("segment files end at %d while the batch is held, want the mark %d", next, low)
	}
	close(fsys.release)
	released = true
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if next := scan(); next != 7 {
		t.Fatalf("segment files end at %d once the write lands, want 7", next)
	}
}

// TestCarriedSnapshotFeedsCheckpoint: a snapshot of an earlier version,
// with records carried past its read state, ships whole through
// Log.Snapshot and is the base a new checkpoint folds from; the new
// snapshot is exact at its sequence, with nothing carried.
func TestCarriedSnapshotFeedsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 40)
	writeCarriedSnapshot(t, dir, 25, 30, []Op{{Kind: KindSet, Key: "read", Val: []byte("between 25 and 30")}})
	seq, recs, err := dirLog(dir).Snapshot()
	if err != nil || seq != 30 || len(recs) != 6 || recs[5].Seq != 30 {
		t.Fatalf("Snapshot: seq %d, %d records, %v; want 30, the chunk and 26..30", seq, len(recs), err)
	}
	if wrote, err := checkpoint(OSFS, dir, 40); !wrote || err != nil {
		t.Fatalf("checkpoint through 40: wrote %v, %v", wrote, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, snapshotName(40)))
	if err != nil {
		t.Fatal(err)
	}
	if from := binary.LittleEndian.Uint64(b[8:16]); from != 40 {
		t.Fatalf("new snapshot reads from %d, want 40 (no carried records)", from)
	}
	recs, res := replayAll(t, dir)
	if res.SnapshotSeq != 40 || res.LastSeq != 40 || res.Records != 0 {
		t.Fatalf("recovered to %d via snapshot %d with %d records, want 40 via 40 with none", res.LastSeq, res.SnapshotSeq, res.Records)
	}
	got := make(map[string]string)
	for _, rec := range recs {
		for _, op := range rec.Ops {
			got[op.Key] = fmt.Sprintf("%s %s %d", op.Kind, op.Val, op.N)
		}
	}
	want := map[string]string{"read": "set between 25 and 30 0", "ctr": "cset  40"}
	for i := 26; i <= 40; i++ {
		want[fmt.Sprintf("k%d", i)] = fmt.Sprintf("set v%d 0", i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("checkpoint state\n%v\nwant\n%v", got, want)
	}
}
