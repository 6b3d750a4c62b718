package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Recovery: establish the longest usable commit-order prefix of what
// was logged, repair the directory down to exactly that prefix, and
// replay it. Two passes over the segments:
//
//  1. Scan: walk the segments in order, decoding records and checking
//     the dense-sequence chain (each record's seq is its predecessor's
//     +1, each segment starts where the previous ended). The first
//     defect — short record, bad checksum, wrong stamp, inter-segment
//     gap — marks the truncation point; everything at and beyond it is
//     discarded (the file truncated, later files deleted). A torn tail
//     is therefore repaired, never fatal.
//  2. Replay: pick the newest loadable snapshot the surviving chain
//     leaves no gap after, apply it, then apply the chain's records
//     past it.
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

	// Tail of the repaired log, consumed by OpenLog: the segment to
	// continue appending to, if any survived.
	tailPath string
	tailSize int64
}

// fileInfo is one parsed directory entry (snapshot or segment).
type fileInfo struct {
	seq  uint64 // segment firstSeq / snapshot seq
	path string
	size int64
}

// listDir parses the durability directory into snapshots and segments,
// each sorted by sequence. Unrecognized names are ignored, except that
// leftover temp files from an interrupted snapshot write are removed.
func listDir(fsys FS, dir string) (snaps, segs []fileInfo, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			fsys.Remove(filepath.Join(dir, name))
			continue
		}
		var seq uint64
		var list *[]fileInfo
		switch {
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

// segHeaderOK reports whether b opens with the header of the segment
// whose first sequence is firstSeq.
func segHeaderOK(b []byte, firstSeq uint64) bool {
	return len(b) >= segHeaderLen && string(b[:8]) == segMagic &&
		binary.LittleEndian.Uint64(b[8:16]) == firstSeq
}

// RecoverFS repairs the durability directory and replays its state
// into apply, in commit order: first the chosen snapshot's records, then
// the log records past it. It creates dir if missing. fsys is the
// filesystem seam (nil = the real one); m, when non-nil, receives
// truncation metrics.
//
// Recovery fails only on I/O errors, an apply error, or an
// unrecoverable gap (every snapshot lost or corrupt after segments
// were compacted away — state that no longer exists on disk). Torn and
// corrupt tails are repaired, not errors.
func RecoverFS(fsys FS, dir string, apply func(Record) error, m *Metrics) (RecoverResult, error) {
	fsys = fsOrOS(fsys)
	var res RecoverResult
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return res, fmt.Errorf("wal: create dir: %w", err)
	}
	snaps, segs, err := listDir(fsys, dir)
	if err != nil {
		return res, err
	}

	// Pass 1 — scan the chain and repair. bodies[i] holds segment i's
	// surviving record bytes for the replay pass.
	bodies := make([][]byte, 0, len(segs))
	var (
		chainStart uint64 // first seq of the surviving chain (0 = empty)
		lastValid  uint64 // last seq of the surviving chain
		truncAt    = -1   // first segment index to repair (-1 = none)
		truncOff   int64  // keep bytes [0, truncOff) of that segment
	)
scan:
	for i, sg := range segs {
		b, err := fsys.ReadFile(sg.path)
		if err != nil {
			return res, err
		}
		headerOK := segHeaderOK(b, sg.seq)
		expected := lastValid + 1
		if !headerOK || (chainStart != 0 && sg.seq != expected) {
			// Unreadable header or inter-segment gap: drop this file
			// and everything after it.
			truncAt, truncOff = i, 0
			break
		}
		if chainStart == 0 {
			chainStart = sg.seq
			expected = sg.seq
		}
		off := int64(segHeaderLen)
		for int(off) < len(b) {
			seq, n, werr := WalkRecord(b[off:], nil)
			if werr != nil || seq != expected {
				truncAt, truncOff = i, off
				bodies = append(bodies, b[segHeaderLen:off])
				break scan
			}
			lastValid = expected
			expected++
			off += int64(n)
		}
		bodies = append(bodies, b[segHeaderLen:off])
	}
	if truncAt >= 0 {
		for i := truncAt; i < len(segs); i++ {
			keep := int64(0)
			if i == truncAt {
				keep = truncOff
			}
			res.TruncatedBytes += segs[i].size - keep
			if keep > 0 {
				if err := fsys.Truncate(segs[i].path, keep); err != nil {
					return res, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				segs[i].size = keep
			} else if err := fsys.Remove(segs[i].path); err != nil {
				return res, fmt.Errorf("wal: drop torn segment: %w", err)
			}
		}
		res.Truncated = true
		if m != nil {
			m.Truncations.Add(1)
			m.TruncatedBytes.Add(uint64(res.TruncatedBytes))
		}
		if truncOff > 0 {
			segs = segs[:truncAt+1]
		} else {
			segs = segs[:truncAt]
		}
		if err := fsys.SyncDir(dir); err != nil {
			return res, err
		}
	}
	if len(bodies) > len(segs) {
		bodies = bodies[:len(segs)]
	}
	dropChain := func(why string) error {
		for _, sg := range segs {
			if err := fsys.Remove(sg.path); err != nil {
				return fmt.Errorf("wal: drop %s chain: %w", why, err)
			}
		}
		segs, bodies, chainStart, lastValid = nil, nil, 0, 0
		return fsys.SyncDir(dir)
	}
	// A chain that survived zero records is no chain at all: its
	// segments are headers with nothing in them, stamped with first
	// sequences a standalone snapshot cannot line up with. Drop them so
	// the snapshot stands alone and appending restarts on a fresh
	// segment at the snapshot's sequence.
	if chainStart != 0 && lastValid == 0 {
		if err := dropChain("empty"); err != nil {
			return res, err
		}
	}

	// Pass 2 — take the newest loadable snapshot the chain leaves no gap
	// after (seq+1 >= chainStart; with no chain at all, any). A chain
	// that ends below it is superseded: every surviving record is
	// already in the snapshot — mid-log damage, with or without
	// compaction, leaves this — so the segments go and appending
	// resumes after the snapshot.
	var snapRecs []Record
	found := false
	for i := len(snaps) - 1; i >= 0 && !found; i-- {
		seq, recs, lerr := loadSnapshot(fsys, snaps[i].path)
		if lerr != nil || (chainStart != 0 && seq+1 < chainStart) {
			continue // corrupt, unreadable, or a gap before the chain: try an older one
		}
		if chainStart != 0 && seq > lastValid {
			if err := dropChain("superseded"); err != nil {
				return res, err
			}
		}
		res.SnapshotSeq, snapRecs, found = seq, recs, true
	}
	if !found && chainStart > 1 {
		return res, fmt.Errorf("wal: no usable snapshot and the log starts at seq %d — records 1..%d were compacted away", chainStart, chainStart-1)
	}
	if !found && chainStart == 0 && len(snaps) > 0 {
		return res, errors.New("wal: every snapshot is corrupt and no log segments remain")
	}
	for _, rec := range snapRecs {
		if err := apply(rec); err != nil {
			return res, err
		}
		res.SnapshotRecords++
	}
	res.LastSeq = res.SnapshotSeq
	for _, body := range bodies {
		for off := 0; off < len(body); {
			rec, n, derr := DecodeRecord(body[off:])
			if derr != nil { // cannot happen: pass 1 validated these bytes
				return res, derr
			}
			off += n
			if rec.Seq <= res.SnapshotSeq {
				continue
			}
			if err := apply(rec); err != nil {
				return res, err
			}
			res.Records++
			res.LastSeq = rec.Seq
		}
	}
	if lastValid > res.LastSeq {
		// Chain records at or below the snapshot seq need no replay
		// but still position the appender.
		res.LastSeq = lastValid
	}

	if len(segs) > 0 {
		tail := segs[len(segs)-1]
		res.tailPath, res.tailSize = tail.path, tail.size
	}
	return res, nil
}
