package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot files: snap-<seq>.snap, the state exact at log sequence seq:
// each key present at seq with its last write, in absolute form. A
// checkpoint makes one by the fold recovery runs — the newest usable
// snapshot's records, then the segment records after it through seq —
// so a snapshot holds what the log holds and nothing else: a write the
// log never saw (a plain store into a privatized key, a key linked in
// bulk and never written) is in no snapshot. It reads files only, never
// the store the log belongs to.
//
// Layout: a 24-byte header (magic, from, through), then ordinary
// records. A snapshot this code writes has from == through == seq and
// holds chunks of absolute ops (KindSet / KindCounterSet) stamped seq.
// Snapshots of earlier versions read the store beside its writers and
// have from < through: chunks stamped from, then the log's records
// from+1..through, dense; loadSnapshot still reads them, and replaying
// one in order gives the state at through. A snapshot is installed by
// rename, after the log is fsynced through seq, so on any crash the
// records it makes redundant are already durable.
const (
	snapMagic     = "MTXSNP2\n"
	snapHeaderLen = 24 // magic(8) + from(8) + through(8)
	snapChunkOps  = 1024
	snapWriteBuf  = 1 << 20 // bytes buffered between a snapshot's writes
)

// snapshotName returns the file name of the snapshot through seq.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

// Folded is a key's folded write: its last op in log order, made
// absolute, and the hash the caller routed the key by. Fold carries the
// hash and never computes it.
type Folded struct {
	Op   *Op
	Hash uint64
}

// Fold folds f, the next op in log order of the keys final holds, into
// final: each key's last write, made absolute in place (a counter add
// becomes the counter set it amounts to), with a deleted key dropped.
// Recovery, a syncing replica and a checkpoint fold their records this
// way.
func Fold(final map[string]Folded, f Folded) error {
	switch op := f.Op; op.Kind {
	case KindSet, KindCounterSet:
		final[op.Key] = f
	case KindCounterAdd:
		if prev, ok := final[op.Key]; ok && prev.Op.Kind == KindCounterSet {
			op.N += prev.Op.N
		}
		op.Kind = KindCounterSet
		final[op.Key] = f
	case KindDelete:
		delete(final, op.Key)
	default:
		return fmt.Errorf("wal: fold: unknown op kind %d", op.Kind)
	}
	return nil
}

// errFolded ends a checkpoint's segment scan past its last record.
var errFolded = errors.New("wal: checkpoint folded through its sequence")

// checkpoint writes the snapshot exact at through — the newest usable
// snapshot's records and the segment records after it through through,
// folded — and compacts. It reads and writes through fsys only. The log
// must hold, on disk, every record through through. It reports false
// when a snapshot at or past through already exists.
func checkpoint(fsys FS, dir string, through uint64) (bool, error) {
	snaps, segs, err := listDir(fsys, dir)
	if err != nil || (len(snaps) > 0 && snaps[len(snaps)-1].seq >= through) {
		return false, err
	}
	seq, recs, err := usableSnapshot(fsys, snaps, segs)
	if err != nil || seq >= through {
		return false, err
	}
	n := 0 // the snapshot's keys: the map's size, give or take the segments
	for i := range recs {
		n += len(recs[i].Ops)
	}
	final := make(map[string]Folded, n)
	for i := range recs {
		for j := range recs[i].Ops {
			if err := Fold(final, Folded{Op: &recs[i].Ops[j]}); err != nil {
				return false, err
			}
		}
	}
	next, err := scanSegments(fsys, snaps, segs, seq+1, func(s uint64, raw []byte) error {
		if s > through {
			return errFolded
		}
		rec, _, err := DecodeRecord(raw)
		if err != nil {
			return err
		}
		for j := range rec.Ops {
			if err := Fold(final, Folded{Op: &rec.Ops[j]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil && err != errFolded {
		return false, err
	}
	if next <= through {
		return false, fmt.Errorf("wal: snapshot through %d: the log holds records only to %d", through, next-1)
	}
	if err := writeSnapshot(fsys, dir, through, final); err != nil {
		return false, err
	}
	// Keep the previous snapshot as a fallback against bit rot in the
	// new one; prune segments both already cover.
	return true, compact(fsys, dir, 2)
}

// writeSnapshot atomically writes the snapshot exact at seq through
// fsys: temp file, fsync, rename, directory fsync. final is the state,
// each key's folded write.
func writeSnapshot(fsys FS, dir string, seq uint64, final map[string]Folded) error {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	buf := make([]byte, snapHeaderLen, snapWriteBuf)
	copy(buf[:8], snapMagic)
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	binary.LittleEndian.PutUint64(buf[16:24], seq)
	chunk := make([]Op, 0, snapChunkOps)
	put := func(last bool) {
		if len(chunk) > 0 && err == nil {
			buf, err = AppendRecord(buf, 0, seq, chunk)
			chunk = chunk[:0]
		}
		if (last || len(buf) >= snapWriteBuf) && err == nil {
			_, err = f.Write(buf)
			buf = buf[:0]
		}
	}
	for _, r := range final {
		if chunk = append(chunk, *r.Op); len(chunk) == snapChunkOps {
			put(false)
		}
	}
	put(true)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	return fsys.SyncDir(dir)
}

// loadSnapshot reads a snapshot file through fsys, a record at a time,
// and parses it completely before returning, so a caller never applies
// half of a corrupt snapshot. Any defect — short file, wrong magic, bad
// record, a tail that does not run dense to through — is an error; the
// caller falls back to an older snapshot. seq is the snapshot's
// through; recs are the chunks, then the tail.
func loadSnapshot(fsys FS, path string) (seq uint64, recs []Record, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, readBuf)
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || string(hdr[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	from := binary.LittleEndian.Uint64(hdr[8:16])
	through := binary.LittleEndian.Uint64(hdr[16:24])
	next := from + 1 // the tail's next record
	var buf []byte
	for {
		b, err := readRecord(r, &buf)
		if err == io.EOF {
			break
		} else if err != nil {
			return 0, nil, err
		}
		rec, _, err := DecodeRecord(b)
		if err != nil {
			return 0, nil, err
		}
		switch {
		case rec.Seq == from && next == from+1: // a chunk, before any tail record
		case rec.Seq == next && next <= through:
			next++
		default:
			return 0, nil, fmt.Errorf("%w: snapshot record stamp", ErrCorrupt)
		}
		recs = append(recs, rec)
	}
	if next != through+1 {
		return 0, nil, fmt.Errorf("%w: snapshot tail ends at %d, not %d", ErrCorrupt, next-1, through)
	}
	return through, recs, nil
}

// newestSnapshot loads the newest snapshot of snaps that parses: the
// one recovery starts from, a checkpoint folds from and a catch-up
// ships, once joinsChain accepts it. seq == 0 means none does.
func newestSnapshot(fsys FS, snaps []fileInfo) (seq uint64, recs []Record) {
	for i := len(snaps) - 1; i >= 0; i-- {
		if seq, recs, err := loadSnapshot(fsys, snaps[i].path); err == nil {
			return seq, recs
		}
	}
	return 0, nil
}

// joinsChain checks that the snapshot through seq (0: none of the
// nsnaps snapshots parsed) leaves no gap before the segment chain that
// starts at chainStart (0: no chain): seq+1 >= chainStart. No snapshot
// is needed when the chain starts at the first record, or nothing was
// ever logged.
func joinsChain(seq uint64, nsnaps int, chainStart uint64) error {
	switch {
	case seq != 0 && seq+1 >= chainStart:
		return nil
	case chainStart > 1:
		return fmt.Errorf("wal: no usable snapshot and the log starts at seq %d — records 1..%d were compacted away", chainStart, chainStart-1)
	case chainStart == 0 && nsnaps > 0:
		return errors.New("wal: every snapshot is corrupt and no log segments remain")
	}
	return nil
}

// usableSnapshot is newestSnapshot joined to the chain segs (see
// joinsChain).
func usableSnapshot(fsys FS, snaps, segs []fileInfo) (seq uint64, recs []Record, err error) {
	var chainStart uint64
	if len(segs) > 0 {
		chainStart = segs[0].seq
	}
	seq, recs = newestSnapshot(fsys, snaps)
	if err := joinsChain(seq, len(snaps), chainStart); err != nil {
		return 0, nil, err
	}
	return seq, recs, nil
}

// compact prunes the durability directory through fsys: it keeps the
// newest keepSnaps snapshots (older ones are deleted) and deletes every
// closed segment whose records are all covered by the oldest retained
// snapshot (at or below its through). The active (newest) segment is
// never touched, so compact is safe to run while a Log is appending.
func compact(fsys FS, dir string, keepSnaps int) error {
	snaps, segs, err := listDir(fsys, dir)
	if err != nil {
		return err
	}
	for len(snaps) > keepSnaps {
		if err := fsys.Remove(snaps[0].path); err != nil {
			return err
		}
		snaps = snaps[1:]
	}
	if len(snaps) == 0 {
		return nil
	}
	floor := snaps[0].seq
	for i := 0; i+1 < len(segs); i++ {
		// Everything in segment i precedes segs[i+1].firstSeq.
		if segs[i+1].seq > floor+1 {
			break
		}
		if err := fsys.Remove(segs[i].path); err != nil {
			return err
		}
	}
	return nil
}
