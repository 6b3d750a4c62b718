package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Snapshot files: snap-<through>.snap. A checkpoint reads the store
// while writers keep committing: it takes the log position `from` before
// it reads anything and `through` when it is done, so each key it read
// holds its value as of some commit in between. On its own that is no
// commit-order state at all. The file therefore carries the state it
// read and then the log's own records from+1..through, and replaying
// both in order gives the exact state at through — writes are logged
// absolute, so a record the read already saw applies again harmlessly.
// Recovery and replication treat the file as the state at through.
//
// Layout: a 24-byte header (magic, from, through), then ordinary
// records: chunks of absolute ops (KindSet / KindCounterSet) stamped
// from, then the tail records from+1..through, dense. A snapshot is
// only installed by rename, after the log is fsynced through `through`,
// so on any crash the records it makes redundant are already durable.
const (
	snapMagic     = "MTXSNP2\n"
	snapHeaderLen = 24 // magic(8) + from(8) + through(8)
	snapChunkOps  = 1024
)

// snapshotName returns the file name of the snapshot through seq.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

// errTailDone ends the tail scan at the snapshot's through.
var errTailDone = errors.New("wal: snapshot tail complete")

// WriteSnapshotFS atomically writes a snapshot through the filesystem
// seam fsys (nil = the real one): temp file, fsync, rename, directory
// fsync. ops is the state read between the log positions from and
// through, in absolute form; the log in dir must hold (on disk, not
// only queued) every record through `through`.
func WriteSnapshotFS(fsys FS, dir string, from, through uint64, ops []Op) error {
	fsys = fsOrOS(fsys)
	buf := make([]byte, snapHeaderLen, snapHeaderLen+64*len(ops))
	copy(buf[:8], snapMagic)
	binary.LittleEndian.PutUint64(buf[8:16], from)
	binary.LittleEndian.PutUint64(buf[16:24], through)
	for len(ops) > 0 {
		chunk := ops[:min(len(ops), snapChunkOps)]
		var err error
		if buf, err = AppendRecord(buf, 0, from, chunk); err != nil {
			return err
		}
		ops = ops[len(chunk):]
	}
	if through > from {
		next, err := ScanSegments(dir, from+1, func(seq uint64, raw []byte) error {
			if seq > through {
				return errTailDone
			}
			buf = append(buf, raw...)
			return nil
		})
		if err != nil && err != errTailDone {
			return err
		}
		if next <= through {
			return fmt.Errorf("wal: snapshot through %d: the log holds records only to %d", through, next-1)
		}
	}

	path := filepath.Join(dir, snapshotName(through))
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
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

// loadSnapshot parses a snapshot file completely before returning, so
// a caller never applies half of a corrupt snapshot. Any defect —
// short file, wrong magic, bad record, a tail that does not run dense
// to through — is an error; the caller falls back to an older snapshot.
// seq is the snapshot's through; recs are the chunks, then the tail.
func loadSnapshot(fsys FS, path string) (seq uint64, recs []Record, err error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(b) < snapHeaderLen || string(b[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	from := binary.LittleEndian.Uint64(b[8:16])
	through := binary.LittleEndian.Uint64(b[16:24])
	next := from + 1 // the tail's next record
	for off := snapHeaderLen; off < len(b); {
		rec, n, derr := DecodeRecord(b[off:])
		if derr != nil {
			return 0, nil, derr
		}
		switch {
		case rec.Seq == from && next == from+1: // a chunk, before any tail record
		case rec.Seq == next && next <= through:
			next++
		default:
			return 0, nil, fmt.Errorf("%w: snapshot record stamp", ErrCorrupt)
		}
		recs = append(recs, rec)
		off += n
	}
	if next != through+1 {
		return 0, nil, fmt.Errorf("%w: snapshot tail ends at %d, not %d", ErrCorrupt, next-1, through)
	}
	return through, recs, nil
}

// CompactFS prunes the durability directory through the filesystem
// seam fsys (nil = the real one): it keeps the newest keepSnaps
// snapshots (older ones are deleted) and deletes every closed segment
// whose records are all covered by the oldest retained snapshot (at or
// below its through). The active (newest) segment is never touched, so
// CompactFS is safe to run while a Log is appending.
func CompactFS(fsys FS, dir string, keepSnaps int) error {
	fsys = fsOrOS(fsys)
	if keepSnaps < 1 {
		keepSnaps = 1
	}
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
