package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzWALRecord drives the decoder with arbitrary bytes — it must
// never panic, never over-consume, and on success the record must
// survive a re-encode/decode round trip. For canonical (current-
// version) inputs the re-encode is byte-identical; a version-1 input
// re-encodes as version 2 with the same meaning. WalkRecord, which
// checks without building, must agree with DecodeRecord on every
// input: the same error, or the same sequence and bytes consumed.
func FuzzWALRecord(f *testing.F) {
	// A valid record, for the round-trip arm of the property.
	valid, err := AppendRecord(nil, 2, 77, []Op{
		{Kind: KindSet, Key: "key", Val: []byte("value")},
		{Kind: KindCounterAdd, Key: "ctr", N: -5},
		{Kind: KindCounterSet, Key: "ctr", N: 9},
		{Kind: KindDelete, Key: "old"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Seeds the issue calls for: truncated, bit-flipped, zero-length.
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	// Zero-length *record*: zero ops.
	empty, err := AppendRecord(nil, 0, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	// A cross-shard transfer: one record, both legs.
	transfer, err := AppendRecord(nil, 0, 9, []Op{
		{Kind: KindCounterSet, Key: "acct:a", N: -7},
		{Kind: KindCounterSet, Key: "acct:b", N: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(transfer)
	// The same record with its reserved flags byte set, re-checksummed:
	// a foreign encoder's bytes, which must not decode.
	flagged := append([]byte(nil), transfer...)
	flagged[recordHeaderSize+1] = 1
	binary.LittleEndian.PutUint32(flagged[4:8], crc32.Checksum(flagged[recordHeaderSize:], crcTable))
	f.Add(flagged)
	// The same record downgraded to version 1 (the PR 7 format: same
	// layout, reserved-zero flags byte), re-checksummed.
	v1 := append([]byte(nil), valid...)
	v1[recordHeaderSize] = 1
	binary.LittleEndian.PutUint32(v1[4:8], crc32.Checksum(v1[recordHeaderSize:], crcTable))
	f.Add(v1)
	// A hostile length prefix.
	huge := make([]byte, 12)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	f.Add(huge)

	// A CRC-valid record whose counter value is 7 bytes long.
	f.Add(counterLen7(f, 5))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		seq, wn, werr := WalkRecord(data, nil)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("decode: %v, walk: %v", err, werr)
		}
		if err != nil {
			return
		}
		if seq != rec.Seq || wn != n {
			t.Fatalf("walk: seq %d, %d bytes; decode: seq %d, %d bytes", seq, wn, rec.Seq, n)
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re, rerr := AppendRecord(nil, rec.Shard, rec.Seq, rec.Ops)
		if rerr != nil {
			t.Fatalf("re-encode of a decoded record failed: %v", rerr)
		}
		if data[recordHeaderSize] == recordVersion {
			// Canonical inputs have one form: decode∘encode is identity.
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("decode∘encode not identity:\n in  %x\n out %x", data[:n], re)
			}
			return
		}
		// A v1 input upgrades on re-encode; meaning must be preserved.
		rec2, n2, err2 := DecodeRecord(re)
		if err2 != nil || n2 != len(re) {
			t.Fatalf("re-decode failed: %v (consumed %d of %d)", err2, n2, len(re))
		}
		if rec2.Shard != rec.Shard || rec2.Seq != rec.Seq || len(rec2.Ops) != len(rec.Ops) {
			t.Fatalf("v1 upgrade changed the record: %+v vs %+v", rec, rec2)
		}
	})
}
