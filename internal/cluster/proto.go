// Package cluster is the replication wire layer: a primary-side
// Streamer that ships the store's WAL over TCP, and a replica-side
// Client that feeds the stream into a kv.Replica. The protocol is
// deliberately dumb — raw WAL records in self-checking frames — because
// all replication semantics (a prefix in LSN order, a cross-shard
// transaction surfacing whole because it is one record, idempotent
// replay) live in the record format and the replica's apply rules, not
// in the transport.
//
// Wire layout, all little-endian:
//
//	server hello:  "MTXREPL2\n" | u64 position
//	client cursor: "MTXREPL2\n" | u64 from
//	frames:        u8 type | u32 shard | u32 len | payload[len]
//
// The server speaks first. The position is the newest LSN committed;
// the cursor is the next LSN wanted. A frame's shard field is written 0
// and ignored.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic opens both hellos. The trailing newline makes an accidental
// HTTP or text client mis-speak visibly.
const Magic = "MTXREPL2\n"

// Frame types.
const (
	// FrameRecord carries one encoded wal.Record.
	FrameRecord = uint8(1)
	// FrameSnapBegin announces a snapshot transfer replacing the
	// replica's state: payload is the u64 sequence the snapshot is exact
	// at. Sent when the replica's cursor predates the primary's oldest
	// retained segment.
	FrameSnapBegin = uint8(2)
	// FrameSnapRec carries one snapshot record (an encoded wal.Record:
	// a chunk of the state read, or one of the log records after it).
	FrameSnapRec = uint8(3)
	// FrameSnapEnd closes the snapshot transfer; the stream then
	// resumes with FrameRecord at snapshot sequence + 1.
	FrameSnapEnd = uint8(4)
	// FramePing is a liveness beacon on an otherwise idle stream.
	FramePing = uint8(5)
)

const (
	frameHeaderLen = 9
	// MaxFrame bounds a frame payload: comfortably above the WAL's
	// segment-roll threshold, so any legitimately encoded record fits,
	// while a garbage length field fails fast instead of allocating.
	MaxFrame = 64 << 20
)

// ErrProto reports a malformed hello or frame; the connection is dead.
var ErrProto = errors.New("cluster: protocol error")

// Frame is one wire frame. Payload aliases the read buffer passed to
// ReadFrame and is valid only until the next call with that buffer.
type Frame struct {
	Type    uint8
	Shard   uint32 // written 0, ignored
	Payload []byte
}

// AppendFrame appends a frame to dst and returns the extended slice.
// The streamer passes shard 0; the argument stays for the benchmark's
// frame probe (a shim; goes with ROADMAP item 8).
func AppendFrame(dst []byte, typ uint8, shard uint32, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, shard)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one frame from r, reusing buf (grown as needed) for
// the payload. It validates the type and length bounds; payload
// contents are the next layer's problem (records self-check via their
// CRC when decoded).
func ReadFrame(r io.Reader, buf []byte) (f Frame, _ []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return f, buf, err
	}
	f.Type = hdr[0]
	f.Shard = binary.LittleEndian.Uint32(hdr[1:5])
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if f.Type < FrameRecord || f.Type > FramePing {
		return f, buf, fmt.Errorf("%w: frame type %d", ErrProto, f.Type)
	}
	if n > MaxFrame {
		return f, buf, fmt.Errorf("%w: frame length %d", ErrProto, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return f, buf, err
	}
	f.Payload = buf
	return f, buf, nil
}

// AppendHello appends a hello carrying seq — the server's position or
// the client's cursor — to dst.
func AppendHello(dst []byte, seq uint64) []byte {
	dst = append(dst, Magic...)
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// ReadHello reads and validates a hello, returning its sequence.
func ReadHello(r io.Reader) (uint64, error) {
	var b [len(Magic) + 8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrProto)
	}
	return binary.LittleEndian.Uint64(b[len(Magic):]), nil
}
