package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// The record codec: fixed layout, explicit offsets, little-endian, no
// reflection. One record is one committed transaction's operations, on
// however many shards it wrote. On disk:
//
//	offset  size  field
//	0       4     payload length (bytes after the checksum)
//	4       4     CRC32C of the payload
//	8       ...   payload:
//	  +0    1     format version (1 or recordVersion)
//	  +1    1     flags (reserved, must be zero)
//	  +2    2     op count
//	  +4    4     shard (the store writes 0; readers ignore it)
//	  +8    8     commit sequence (the store's LSN)
//	  then  ...   ops, each:
//	    +0  1     kind (KindSet, KindCounterAdd, KindCounterSet, KindDelete)
//	    +1  1     reserved (zero)
//	    +2  2     key length
//	    +4  4     value length (SET: len(Val); counters: 8; DELETE: 0)
//	    +8  ...   key bytes, then value bytes (counters: int64, LE)
//
// The checksum covers the payload only; the length prefix is validated
// structurally (bounds, exact op consumption). A record that fails any
// check decodes to ErrCorrupt; a record that runs past the end of the
// input decodes to ErrShortRecord — the torn-tail signal recovery
// truncates at. A record is therefore atomic by framing: a transaction
// that wrote several shards survives a crash whole or not at all.

const (
	recordVersion = 2

	recordHeaderSize  = 8  // payload length + CRC32C
	payloadHeaderSize = 16 // version, flags, nops, shard, seq
	opHeaderSize      = 8  // kind, reserved, key length, value length

	// MaxRecordSize bounds one record's payload (and therefore one
	// transaction's encoded write set): a defense against hostile
	// length prefixes, far above anything the store emits.
	MaxRecordSize = 1 << 28

	// MaxKeyLen is the largest encodable key (the wire field is 16 bits).
	MaxKeyLen = 1<<16 - 1

	// maxOps is the largest encodable op count per record.
	maxOps = 1<<16 - 1
)

// Codec errors. Recovery distinguishes them: a short record is the
// expected shape of a torn tail (the crash interrupted a write), while
// a corrupt record means the bytes are there but wrong — both truncate,
// but they are counted and reported separately where it matters.
var (
	ErrShortRecord = errors.New("wal: short record")
	ErrCorrupt     = errors.New("wal: corrupt record")
)

// crcTable is the Castagnoli table (CRC32C) — hardware-accelerated on
// the platforms this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Kind identifies one operation within a record.
type Kind uint8

// Operation kinds. KindCounterSet is what the store emits for counter
// writes (the absolute post-transaction value, so replay is
// idempotent); KindCounterAdd is the relative form, part of the wire
// format for producers that cannot supply absolute values — appliers
// must not replay it over state that may already include it.
const (
	KindSet        Kind = 1 // bytes lane: set Key to Val
	KindCounterAdd Kind = 2 // counter lane: add N to Key
	KindCounterSet Kind = 3 // counter lane: set Key to N
	KindDelete     Kind = 4 // remove Key from the table
)

var kindNames = [...]string{KindSet: "set", KindCounterAdd: "cadd", KindCounterSet: "cset", KindDelete: "del"}

// String returns the kind's wire name (stable: EVENT lines emit it).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// valid reports whether k is an encodable kind.
func (k Kind) valid() bool { return k >= KindSet && k <= KindDelete }

// Op is one operation: a key and, depending on Kind, a byte-slice
// value (KindSet) or an int64 (counters). Delete carries the key only.
type Op struct {
	Kind Kind
	Key  string
	Val  []byte // KindSet payload; nil otherwise
	N    int64  // KindCounterAdd delta / KindCounterSet absolute value
}

// Record is one decoded log record: the operations of one committed
// transaction at one commit sequence number.
type Record struct {
	Shard uint32 // written 0 by the store, ignored by readers; a shim that goes with ROADMAP item 8
	Seq   uint64
	Ops   []Op
}

// opWireSize returns the encoded size of op, or an error if it exceeds
// a wire limit.
func opWireSize(op *Op) (int, error) {
	if !op.Kind.valid() {
		return 0, fmt.Errorf("%w: op kind %d", ErrCorrupt, op.Kind)
	}
	if len(op.Key) > MaxKeyLen {
		return 0, fmt.Errorf("wal: key of %d bytes exceeds the %d-byte wire limit", len(op.Key), MaxKeyLen)
	}
	n := opHeaderSize + len(op.Key)
	switch op.Kind {
	case KindSet:
		n += len(op.Val)
	case KindCounterAdd, KindCounterSet:
		n += 8
	}
	return n, nil
}

// AppendRecord encodes one record and appends it to dst, returning the
// extended slice. It is the only encoder: the Log's group-commit
// buffer, the snapshot writer and the tests all append through it. The
// store passes shard 0; the argument stays for the benchmark's codec
// probe (a shim; goes with ROADMAP item 8).
func AppendRecord(dst []byte, shard uint32, seq uint64, ops []Op) ([]byte, error) {
	if len(ops) > maxOps {
		return dst, fmt.Errorf("wal: %d ops exceed the %d-op record limit", len(ops), maxOps)
	}
	payload := payloadHeaderSize
	for i := range ops {
		n, err := opWireSize(&ops[i])
		if err != nil {
			return dst, err
		}
		payload += n
	}
	if payload > MaxRecordSize {
		return dst, fmt.Errorf("wal: %d-byte payload exceeds MaxRecordSize", payload)
	}

	start := len(dst)
	dst = slices.Grow(dst, recordHeaderSize+payload)[:start+recordHeaderSize+payload]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	p := b[recordHeaderSize:]
	p[0] = recordVersion
	p[1] = 0
	binary.LittleEndian.PutUint16(p[2:4], uint16(len(ops)))
	binary.LittleEndian.PutUint32(p[4:8], shard)
	binary.LittleEndian.PutUint64(p[8:16], seq)
	off := payloadHeaderSize
	for i := range ops {
		op := &ops[i]
		var vlen int
		switch op.Kind {
		case KindSet:
			vlen = len(op.Val)
		case KindCounterAdd, KindCounterSet:
			vlen = 8
		}
		p[off] = byte(op.Kind)
		p[off+1] = 0
		binary.LittleEndian.PutUint16(p[off+2:off+4], uint16(len(op.Key)))
		binary.LittleEndian.PutUint32(p[off+4:off+8], uint32(vlen))
		off += opHeaderSize
		copy(p[off:], op.Key)
		off += len(op.Key)
		switch op.Kind {
		case KindSet:
			copy(p[off:], op.Val)
		case KindCounterAdd, KindCounterSet:
			binary.LittleEndian.PutUint64(p[off:], uint64(op.N))
		}
		off += vlen
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(p, crcTable))
	return dst, nil
}

// DecodeRecord decodes the record at the front of b, returning it and
// the number of bytes consumed. The returned record does not alias b.
// It returns ErrShortRecord when b ends inside the record (a torn
// tail) and ErrCorrupt when the bytes are structurally or
// checksum-invalid; it never panics, whatever the input. It is
// WalkRecord plus building the ops, so the two accept and reject the
// same bytes.
func DecodeRecord(b []byte) (Record, int, error) {
	var ops []Op
	seq, n, err := WalkRecord(b, func(kind Kind, key, val []byte, v int64) {
		if ops == nil {
			// The first visit comes after the header's checks: size the
			// ops once, capped by what the payload could possibly hold,
			// so a hostile op count cannot force a large allocation.
			plen := int(binary.LittleEndian.Uint32(b[0:4]))
			nops := int(binary.LittleEndian.Uint16(b[recordHeaderSize+2:]))
			ops = make([]Op, 0, min(nops, (plen-payloadHeaderSize)/opHeaderSize))
		}
		op := Op{Kind: kind, Key: string(key), N: v}
		if kind == KindSet {
			op.Val = append([]byte(nil), val...)
		}
		ops = append(ops, op)
	})
	if err != nil {
		return Record{}, 0, err
	}
	shard := binary.LittleEndian.Uint32(b[recordHeaderSize+4:])
	return Record{Shard: shard, Seq: seq, Ops: ops}, n, nil
}

// WalkRecord checks the record at the front of b without building it,
// returning its commit sequence and the number of bytes it spans. It
// makes every check DecodeRecord makes — length, checksum, version,
// flags, op headers, counter and delete value lengths, trailing bytes —
// with the same errors, and allocates nothing. visit, when not nil,
// sees each op as the walk passes it: key and val alias b, val is nil
// but for KindSet, and v is a counter's value. visit may have seen some
// ops of a record that then fails; the caller drops them.
func WalkRecord(b []byte, visit func(kind Kind, key, val []byte, v int64)) (seq uint64, size int, err error) {
	if len(b) < recordHeaderSize {
		return 0, 0, ErrShortRecord
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	if plen < payloadHeaderSize || plen > MaxRecordSize {
		return 0, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if len(b) < recordHeaderSize+plen {
		return 0, 0, ErrShortRecord
	}
	p := b[recordHeaderSize : recordHeaderSize+plen]
	if got, want := crc32.Checksum(p, crcTable), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return 0, 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	// The checksum passed, so from here every failure is structural
	// corruption written by a buggy or foreign encoder, not bit rot.
	// Version 1 is the PR 7 format: the same layout.
	if p[0] != 1 && p[0] != recordVersion {
		return 0, 0, fmt.Errorf("%w: record version %d", ErrCorrupt, p[0])
	}
	if p[1] != 0 {
		return 0, 0, fmt.Errorf("%w: record flags %#02x", ErrCorrupt, p[1])
	}
	nops := int(binary.LittleEndian.Uint16(p[2:4]))
	off := payloadHeaderSize
	for i := 0; i < nops; i++ {
		if off+opHeaderSize > plen {
			return 0, 0, fmt.Errorf("%w: op %d header past payload end", ErrCorrupt, i)
		}
		kind := Kind(p[off])
		klen := int(binary.LittleEndian.Uint16(p[off+2 : off+4]))
		vlen := int(binary.LittleEndian.Uint32(p[off+4 : off+8]))
		if !kind.valid() || p[off+1] != 0 {
			return 0, 0, fmt.Errorf("%w: op %d header", ErrCorrupt, i)
		}
		off += opHeaderSize
		if off+klen+vlen > plen || klen+vlen < 0 {
			return 0, 0, fmt.Errorf("%w: op %d body past payload end", ErrCorrupt, i)
		}
		key := p[off : off+klen]
		off += klen
		var val []byte
		var v int64
		switch kind {
		case KindSet:
			val = p[off : off+vlen]
		case KindCounterAdd, KindCounterSet:
			if vlen != 8 {
				return 0, 0, fmt.Errorf("%w: op %d counter value length %d", ErrCorrupt, i, vlen)
			}
			v = int64(binary.LittleEndian.Uint64(p[off : off+8]))
		case KindDelete:
			if vlen != 0 {
				return 0, 0, fmt.Errorf("%w: op %d delete value length %d", ErrCorrupt, i, vlen)
			}
		}
		off += vlen
		if visit != nil {
			visit(kind, key, val, v)
		}
	}
	if off != plen {
		return 0, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, plen-off)
	}
	return binary.LittleEndian.Uint64(p[8:16]), recordHeaderSize + plen, nil
}
