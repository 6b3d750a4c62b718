package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// Segment reads: one reader for recovery, a checkpoint and a replica's
// catch-up. Each reads the segment files in order through the log's FS,
// a record at a time into one reused buffer, so a read holds one
// record, not one segment, and allocates per segment, not per record. A
// streamer serving a follower from sequence N reads records N..
// (Log.Scan) — read-only, concurrent with the live appender — and stops
// cleanly at the first defect, which on a healthy log is simply the
// not-yet-written tail (the live boundary where the Follower takes
// over). Only recovery, before the log opens, repairs at that defect.

// ErrCompacted reports that the requested sequence predates the
// oldest on-disk record: compaction pruned it. The caller must fall
// back to a snapshot (Log.Snapshot) and resume from its sequence.
var ErrCompacted = errors.New("wal: requested records compacted away")

// readBuf is the reader's buffer: the bytes one read(2) of a segment or
// snapshot fetches.
const readBuf = 64 << 10

// Scan streams every valid record with seq >= from from the log's
// segment files, in sequence order, stopping at the first defect (torn
// tail, gap, or any check WalkRecord makes — on a live log, the write
// frontier). fn receives the record's sequence number and its raw
// encoded bytes (valid only during the call); a scan builds no record.
// It returns next, the first sequence NOT streamed: fn was called for
// exactly [from, next). next == from means nothing was available yet.
//
// Scanning is read-only and safe concurrently with the appender; a
// partially visible in-flight write reads as a short record and ends
// the scan at that boundary.
func (l *Log) Scan(from uint64, fn func(seq uint64, raw []byte) error) (next uint64, err error) {
	snaps, segs, err := listDir(l.fs, l.dir)
	if err != nil {
		return max(from, 1), err
	}
	return scanSegments(l.fs, snaps, segs, from, fn)
}

// Snapshot loads the newest snapshot a catch-up can go on from — the
// one recovery would start from — returning the sequence it is exact at
// and its records (see snapshot.go). seq == 0 means no snapshot exists
// (an empty store prefix — not an error).
func (l *Log) Snapshot() (seq uint64, recs []Record, err error) {
	snaps, segs, err := listDir(l.fs, l.dir)
	if err != nil {
		return 0, nil, err
	}
	return usableSnapshot(l.fs, snaps, segs)
}

// scanSegments is Scan over the directory listing snaps, segs, reading
// through fsys.
func scanSegments(fsys FS, snaps, segs []fileInfo, from uint64, fn func(seq uint64, raw []byte) error) (next uint64, err error) {
	from = max(from, 1)
	if len(segs) == 0 {
		for _, sn := range snaps {
			if sn.seq >= from {
				return from, ErrCompacted
			}
		}
		return from, nil
	}
	// Start at the newest segment whose first sequence is <= from.
	start := 0
	for i, sg := range segs {
		if sg.seq <= from {
			start = i
		}
	}
	if segs[start].seq > from {
		return from, ErrCompacted
	}
	end, err := readChain(fsys, segs[start:], from, fn)
	return max(from, end.next), err
}

// chainEnd is where a read of a segment chain stopped: at byte off of
// segment seg, its first defect (off 0: the segment's header is bad or
// its first sequence leaves a gap), or at seg == len(segs) when every
// segment read to its end. next is the sequence after the last valid
// record.
type chainEnd struct {
	seg  int
	off  int64
	next uint64
}

// readChain reads segs in order as one dense chain from segs[0]'s first
// sequence, checking every record, and calls fn for each one with
// seq >= from. It stops at the first defect and reports where; an I/O
// error, or fn's, ends it with that error.
func readChain(fsys FS, segs []fileInfo, from uint64, fn func(seq uint64, raw []byte) error) (chainEnd, error) {
	if len(segs) == 0 {
		return chainEnd{}, nil
	}
	end := chainEnd{next: segs[0].seq}
	var (
		r   *bufio.Reader
		buf []byte
	)
	for i, sg := range segs {
		end.seg, end.off = i, 0
		if sg.seq != end.next {
			return end, nil
		}
		f, err := fsys.Open(sg.path)
		if err != nil {
			return end, err
		}
		if r == nil {
			r = bufio.NewReaderSize(f, readBuf)
		} else {
			r.Reset(f)
		}
		defect, err := readSegment(r, sg.seq, &end, &buf, from, fn)
		f.Close()
		if defect || err != nil {
			return end, err
		}
	}
	end.seg, end.off = len(segs), 0
	return end, nil
}

// readSegment reads one segment, whose first sequence is firstSeq, from
// r, advancing end past each valid record. It reports whether it
// stopped at a defect rather than at the segment's end.
func readSegment(r *bufio.Reader, firstSeq uint64, end *chainEnd, buf *[]byte, from uint64, fn func(seq uint64, raw []byte) error) (defect bool, err error) {
	hdr, err := r.Peek(segHeaderLen)
	if err != nil && err != io.EOF {
		return false, err
	}
	if !segHeaderOK(hdr, firstSeq) {
		return true, nil
	}
	r.Discard(segHeaderLen)
	end.off = segHeaderLen
	for {
		b, err := readRecord(r, buf)
		switch {
		case err == io.EOF:
			return false, nil
		case errors.Is(err, ErrShortRecord) || errors.Is(err, ErrCorrupt):
			return true, nil
		case err != nil:
			return false, err
		}
		seq, _, werr := WalkRecord(b, nil)
		if werr != nil || seq != end.next {
			return true, nil
		}
		if seq >= from {
			if err := fn(seq, b); err != nil {
				return false, err
			}
		}
		end.off += int64(len(b))
		end.next++
	}
}

// readRecord reads the next framed record from r: its header and as
// many bytes as the header says, checked no further. The bytes are a
// view of r's buffer, valid until r is read again, or, for a record
// larger than that buffer, *buf, grown as needed. io.EOF means r ended
// on a record boundary, ErrShortRecord that it ended inside a record,
// and ErrCorrupt that the length is out of bounds; any other error is
// the read's.
func readRecord(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := r.Peek(recordHeaderSize)
	switch {
	case err == io.EOF && len(hdr) == 0:
		return nil, io.EOF
	case err == io.EOF:
		return nil, ErrShortRecord
	case err != nil:
		return nil, err
	}
	plen := int(binary.LittleEndian.Uint32(hdr))
	if plen < payloadHeaderSize || plen > MaxRecordSize {
		return nil, ErrCorrupt
	}
	n := recordHeaderSize + plen
	if n <= r.Size() {
		b, err := r.Peek(n)
		if err == io.EOF {
			return nil, ErrShortRecord
		} else if err != nil {
			return nil, err
		}
		r.Discard(n)
		return b, nil
	}
	*buf = slices.Grow((*buf)[:0], n)[:n]
	if _, err := io.ReadFull(r, *buf); err == io.ErrUnexpectedEOF {
		return nil, ErrShortRecord
	} else if err != nil {
		return nil, err
	}
	return *buf, nil
}
