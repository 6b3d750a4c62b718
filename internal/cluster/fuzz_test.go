package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"modtx/internal/wal"
)

// FuzzReplFrame drives the replication wire decoder — frame reader
// plus the record-decode step the client performs on FrameRecord —
// with arbitrary bytes. It must never panic, never allocate from a
// hostile length field beyond the bound, and corrupt frames must
// never yield an applicable record: either ReadFrame rejects the
// frame, or the payload fails wal.DecodeRecord, or the decode is a
// valid record (whose CRC passed) — there is no fourth outcome where
// garbage silently applies.
func FuzzReplFrame(f *testing.F) {
	rec, err := wal.AppendRecord(nil, 0, 7, []wal.Op{
		{Kind: wal.KindSet, Key: "k", Val: []byte("v")},
		{Kind: wal.KindCounterSet, Key: "acct", N: -3},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendFrame(nil, FrameRecord, 0, rec))
	f.Add(AppendFrame(nil, FramePing, 0, nil))
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], 42)
	f.Add(AppendFrame(nil, FrameSnapBegin, 0, p[:]))
	f.Add(AppendFrame(nil, FrameSnapEnd, 0, nil))
	// Torn header, bad type, hostile length.
	f.Add(AppendFrame(nil, FrameRecord, 0, rec)[:5])
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0})
	hostile := []byte{FrameRecord, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	f.Add(hostile)
	// A record frame whose payload is bit-flipped.
	broken := AppendFrame(nil, FrameRecord, 0, rec)
	broken[len(broken)-2] ^= 0x40
	f.Add(broken)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			f, nbuf, err := ReadFrame(r, buf)
			if err != nil {
				return // rejected: connection would drop
			}
			buf = nbuf
			if len(f.Payload) > MaxFrame {
				t.Fatalf("payload of %d bytes exceeds MaxFrame", len(f.Payload))
			}
			if f.Type < FrameRecord || f.Type > FramePing {
				t.Fatalf("ReadFrame passed invalid type %d", f.Type)
			}
			if f.Type == FrameRecord || f.Type == FrameSnapRec {
				rec, n, derr := wal.DecodeRecord(f.Payload)
				if derr != nil {
					continue // corrupt record: client drops the connection
				}
				// The client additionally requires the frame to contain
				// exactly one record; emulate that gate.
				if n != len(f.Payload) {
					continue
				}
				// A record that passes every gate decoded through the
				// CRC-checked WAL codec: re-encoding it must succeed
				// (it is structurally valid, so it could legitimately
				// apply).
				if _, rerr := wal.AppendRecord(nil, rec.Shard, rec.Seq, rec.Ops); rerr != nil {
					t.Fatalf("accepted record does not re-encode: %v", rerr)
				}
			}
		}
	})
}

// FuzzReplHello drives the handshake decoder the same way.
func FuzzReplHello(f *testing.F) {
	f.Add(AppendHello(nil, 42))
	f.Add([]byte(Magic))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	// The per-shard hello of the previous protocol: refused.
	f.Add(append([]byte("MTXREPL1\n"), 2, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got, rerr := ReadHello(bytes.NewReader(AppendHello(nil, seq))); rerr != nil || got != seq {
			t.Fatalf("hello does not round-trip: %d, %v", got, rerr)
		}
	})
}
