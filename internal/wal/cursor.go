package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"slices"
)

// Segment-cursor reads: the replication catch-up path. A streamer
// serving a follower from sequence N reads records N.. straight from
// the segment files — read-only, concurrent with the live appender —
// and stops cleanly at the first defect, which on a healthy log is
// simply the not-yet-written tail (the live boundary where the
// Follower takes over). Unlike RecoverFS, a scan never repairs: the
// appender owns the files.

// ErrCompacted reports that the requested sequence predates the
// oldest on-disk record: compaction pruned it. The caller must fall
// back to a snapshot (LatestSnapshot) and resume from its sequence.
var ErrCompacted = errors.New("wal: requested records compacted away")

// ScanSegments streams every valid record with seq >= fromSeq from
// the segment files in dir, in sequence order, stopping at the first
// defect (torn tail, gap, or any check WalkRecord makes — on a live
// log, the write frontier). fn receives the record's sequence number
// and its raw encoded bytes (valid only during the call); a scan
// builds no record. It returns next, the first sequence NOT streamed:
// fn was called for exactly [fromSeq, next). next == fromSeq means
// nothing was available yet.
//
// Scanning is read-only and safe concurrently with the appender; a
// partially visible in-flight write reads as a short record and ends
// the scan at that boundary. Segments are read through one reader, a
// record at a time into one reused buffer, so a scan holds one record,
// not one segment, and allocates per segment, not per record.
func ScanSegments(dir string, fromSeq uint64, fn func(seq uint64, raw []byte) error) (next uint64, err error) {
	if fromSeq == 0 {
		fromSeq = 1
	}
	next = fromSeq
	snaps, segs, err := listDir(OSFS, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return next, nil // nothing logged yet
		}
		return next, err
	}
	if len(segs) == 0 {
		for _, sn := range snaps {
			if sn.seq >= fromSeq {
				return next, ErrCompacted
			}
		}
		return next, nil
	}
	// Start at the newest segment whose first sequence is <= fromSeq.
	start := 0
	for i, sg := range segs {
		if sg.seq <= fromSeq {
			start = i
		}
	}
	if segs[start].seq > fromSeq {
		return next, ErrCompacted
	}
	expected := segs[start].seq
	var (
		r   *bufio.Reader
		buf []byte
	)
	for _, sg := range segs[start:] {
		if sg.seq != expected {
			return next, nil // defect boundary: stop cleanly
		}
		f, err := os.Open(sg.path)
		if err != nil {
			return next, err
		}
		if r == nil {
			r = bufio.NewReaderSize(f, 64<<10)
		} else {
			r.Reset(f)
		}
		hdr, herr := r.Peek(segHeaderLen)
		clean := herr == nil && segHeaderOK(hdr, sg.seq)
		if clean {
			r.Discard(segHeaderLen)
		}
		for clean {
			var seq uint64
			if buf, seq, err = readRecord(r, buf); err != nil || seq != expected {
				clean = err == io.EOF // the segment's end, not a defect
				break
			}
			if seq >= fromSeq {
				if err := fn(seq, buf); err != nil {
					f.Close()
					return next, err
				}
				next = seq + 1
			}
			expected++
		}
		f.Close()
		if !clean {
			return next, nil
		}
	}
	return next, nil
}

// readRecord reads the next record from r into buf (grown as needed)
// and checks it with WalkRecord, returning the bytes and the record's
// sequence number; io.EOF means r ended on a record boundary.
func readRecord(r *bufio.Reader, buf []byte) ([]byte, uint64, error) {
	hdr, err := r.Peek(recordHeaderSize)
	if err == io.EOF && len(hdr) == 0 {
		return buf, 0, io.EOF
	}
	if err != nil {
		return buf, 0, ErrShortRecord
	}
	plen := int(binary.LittleEndian.Uint32(hdr))
	if plen < payloadHeaderSize || plen > MaxRecordSize {
		return buf, 0, ErrCorrupt
	}
	buf = slices.Grow(buf[:0], recordHeaderSize+plen)[:recordHeaderSize+plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, 0, ErrShortRecord
	}
	seq, _, err := WalkRecord(buf, nil)
	return buf, seq, err
}

// LatestSnapshot loads the newest loadable snapshot in dir, returning
// the sequence it is exact at and its records (see snapshot.go). seq
// == 0 means no snapshot exists (an empty store prefix — not an error).
func LatestSnapshot(dir string) (seq uint64, recs []Record, err error) {
	snaps, _, err := listDir(OSFS, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		s, r, lerr := loadSnapshot(OSFS, snaps[i].path)
		if lerr != nil {
			continue
		}
		return s, r, nil
	}
	if len(snaps) > 0 {
		return 0, nil, errors.New("wal: no snapshot is loadable")
	}
	return 0, nil, nil
}
