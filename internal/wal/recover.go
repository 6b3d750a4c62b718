package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Recovery: establish the longest usable commit-order prefix of what
// was logged, repair the directory down to exactly that prefix, and
// replay it. It reads every file through the log's FS, a record at a
// time, in one pass over the segments:
//
//  1. Snapshot: load the newest snapshot that parses and apply it. A
//     snapshot is the state exact at its sequence whatever the segments
//     hold, so it goes first.
//  2. Scan: read the segments in order with the reader catch-up and the
//     checkpoint use (readChain), checking each record and the
//     dense-sequence chain (each record's seq is its predecessor's +1,
//     each segment starts where the previous ended), and apply each
//     record past the snapshot as it is read. The first defect — short
//     record, bad checksum, wrong stamp, inter-segment gap — is where
//     the scan stops; everything at and beyond it is discarded (the
//     file truncated there, later files deleted). A torn tail is
//     therefore repaired, never fatal.
//  3. Join: the snapshot must leave no gap before the surviving chain.
//     A chain that ends below the snapshot is superseded — every
//     surviving record is already in it, which mid-log damage leaves,
//     with or without compaction — so the segments go and appending
//     resumes after the snapshot.
//
// The result is always a commit-order prefix: a snapshot replays to the
// exact state at its seq (see snapshot.go), and replaying dense records
// over it reproduces the exact state at the truncation point.

// RecoverResult summarizes a recovery.
type RecoverResult struct {
	// LastSeq is the commit sequence the recovered state corresponds
	// to; appending resumes at LastSeq+1.
	LastSeq uint64
	// SnapshotSeq is the sequence of the snapshot used (0 = none).
	SnapshotSeq uint64
	// SnapshotRecords and Records count what was applied: snapshot
	// chunks and replayed log records.
	SnapshotRecords int
	Records         int
	// Truncated reports whether a torn or corrupt tail was repaired,
	// dropping TruncatedBytes bytes.
	Truncated      bool
	TruncatedBytes int64
}

// fileInfo is one parsed directory entry (snapshot or segment).
type fileInfo struct {
	seq  uint64 // segment firstSeq / snapshot seq
	path string
	size int64
}

// listDir parses the durability directory into snapshots and segments,
// each sorted by sequence. Unrecognized names, temp files among them,
// are ignored; a directory holding an earlier version's per-shard logs
// (store.meta) is refused.
func listDir(fsys FS, dir string) (snaps, segs []fileInfo, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		var seq uint64
		var list *[]fileInfo
		switch {
		case name == "store.meta":
			return nil, nil, fmt.Errorf("wal: %s holds the per-shard logs of an earlier version, which this one does not read", dir)
		case len(name) == len("snap-.snap")+20 && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if _, err := fmt.Sscanf(name, "snap-%020d.snap", &seq); err != nil {
				continue
			}
			list = &snaps
		case len(name) == len("seg-.wal")+20 && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if _, err := fmt.Sscanf(name, "seg-%020d.wal", &seq); err != nil {
				continue
			}
			list = &segs
		default:
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, nil, err
		}
		*list = append(*list, fileInfo{seq: seq, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return snaps, segs, nil
}

// removeTemps removes the temp files an interrupted snapshot write left
// in dir. Only recovery does, before the log opens: anything else that
// lists the directory — a catch-up scan, a checkpoint — may run beside
// a checkpoint writing its temp file.
func removeTemps(fsys FS, dir string) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			fsys.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	return nil
}

// segHeaderOK reports whether b opens with the header of the segment
// whose first sequence is firstSeq.
func segHeaderOK(b []byte, firstSeq uint64) bool {
	return len(b) >= segHeaderLen && string(b[:8]) == segMagic &&
		binary.LittleEndian.Uint64(b[8:16]) == firstSeq
}

// Open recovers the log in dir and opens it for appending. It creates
// dir if missing, repairs it, replays its state into apply in commit
// order — the snapshot's records, then the log records past it — and
// continues the repaired tail segment, or starts a fresh one after the
// recovered sequence. Every file operation goes through o.FS; o.Metrics,
// when non-nil, also receives the truncation metrics.
//
// Open fails only on I/O errors, an apply error, a directory of an
// earlier version, or an unrecoverable gap (every snapshot lost or
// corrupt after segments were compacted away — state that no longer
// exists on disk). Torn and corrupt tails are repaired, not errors.
func Open(dir string, o Options, apply func(Record) error) (*Log, RecoverResult, error) {
	fsys := fsOrOS(o.FS)
	res, tail, err := recoverDir(fsys, dir, apply, o.Metrics)
	if err != nil {
		return nil, res, err
	}
	l, err := openLog(dir, res.LastSeq, tail, o)
	return l, res, err
}

// recoverDir is Open's recovery: it repairs dir and replays it into
// apply, returning the segment to continue appending to (path "" when
// none survived).
func recoverDir(fsys FS, dir string, apply func(Record) error, m *Metrics) (res RecoverResult, tail fileInfo, err error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return res, tail, fmt.Errorf("wal: create dir: %w", err)
	}
	if err := removeTemps(fsys, dir); err != nil {
		return res, tail, err
	}
	snaps, segs, err := listDir(fsys, dir)
	if err != nil {
		return res, tail, err
	}

	// 1. The snapshot.
	snapSeq, snapRecs := newestSnapshot(fsys, snaps)
	for _, rec := range snapRecs {
		if err := apply(rec); err != nil {
			return res, tail, err
		}
	}
	res.SnapshotSeq, res.SnapshotRecords, res.LastSeq = snapSeq, len(snapRecs), snapSeq

	// 2. The chain, each record past the snapshot applied as it is read.
	end, err := readChain(fsys, segs, snapSeq+1, func(seq uint64, raw []byte) error {
		rec, _, err := DecodeRecord(raw)
		if err == nil {
			err = apply(rec)
		}
		res.Records++
		res.LastSeq = seq
		return err
	})
	if err != nil {
		return res, tail, err
	}
	if end.seg < len(segs) {
		for i := end.seg; i < len(segs); i++ {
			keep := int64(0)
			if i == end.seg {
				keep = end.off
			}
			res.TruncatedBytes += segs[i].size - keep
			if keep > 0 {
				if err := fsys.Truncate(segs[i].path, keep); err != nil {
					return res, tail, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				segs[i].size = keep
			} else if err := fsys.Remove(segs[i].path); err != nil {
				return res, tail, fmt.Errorf("wal: drop torn segment: %w", err)
			}
		}
		res.Truncated = true
		if m != nil {
			m.Truncations.Add(1)
			m.TruncatedBytes.Add(uint64(res.TruncatedBytes))
		}
		if end.off > 0 {
			segs = segs[:end.seg+1]
		} else {
			segs = segs[:end.seg]
		}
		if err := fsys.SyncDir(dir); err != nil {
			return res, tail, err
		}
	}

	// 3. The join. A chain that survived zero records is no chain at
	// all: its segments are headers with nothing in them, stamped with
	// first sequences a standalone snapshot cannot line up with. It goes,
	// as a superseded one does, so the snapshot stands alone and
	// appending restarts on a fresh segment at the snapshot's sequence.
	var chainStart uint64
	if len(segs) > 0 && end.next > segs[0].seq {
		chainStart = segs[0].seq
	}
	if err := joinsChain(snapSeq, len(snaps), chainStart); err != nil {
		return res, tail, err
	}
	if len(segs) > 0 && (chainStart == 0 || snapSeq >= end.next) {
		for _, sg := range segs {
			if err := fsys.Remove(sg.path); err != nil {
				return res, tail, fmt.Errorf("wal: drop superseded chain: %w", err)
			}
		}
		segs = nil
		if err := fsys.SyncDir(dir); err != nil {
			return res, tail, err
		}
	}
	// Chain records at or below the snapshot seq need no replay but still
	// position the appender.
	if len(segs) > 0 {
		res.LastSeq = max(res.LastSeq, end.next-1)
		tail = segs[len(segs)-1]
	}
	return res, tail, nil
}
