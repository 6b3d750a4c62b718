package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// counterLen7 returns a record at seq whose one counter op carries a
// 7-byte value: its checksum is valid, so only the walk's structural
// checks can reject it.
func counterLen7(t testing.TB, seq uint64) []byte {
	t.Helper()
	b, err := AppendRecord(nil, 0, seq, []Op{{Kind: KindCounterSet, Key: "c", N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The op's value length sits after its kind, reserved byte and key
	// length; drop the value's last byte to match.
	vlenAt := recordHeaderSize + payloadHeaderSize + 4
	binary.LittleEndian.PutUint32(b[vlenAt:], 7)
	b = b[:len(b)-1]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-recordHeaderSize))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[recordHeaderSize:], crcTable))
	return b
}

// TestScanSegmentsStopsAtStructuralCorruption: a scan ends at a record
// whose checksum holds but whose counter value is 7 bytes long, as at a
// torn tail — the records before it stream, nothing after it does — and
// recovery truncates the segment at that record.
func TestScanSegmentsStopsAtStructuralCorruption(t *testing.T) {
	dir := t.TempDir()
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	buf := hdr[:]
	for seq := uint64(1); seq <= 5; seq++ {
		var err error
		if buf, err = AppendRecord(buf, 0, seq, testOps(int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	corruptAt := int64(len(buf))
	buf = append(buf, counterLen7(t, 6)...)
	for seq := uint64(7); seq <= 8; seq++ {
		var err error
		if buf, err = AppendRecord(buf, 0, seq, testOps(int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	next, err := ScanSegments(dir, 1, func(seq uint64, _ []byte) error {
		seen = append(seen, seq)
		return nil
	})
	if err != nil || next != 6 || len(seen) != 5 || seen[4] != 5 {
		t.Fatalf("scan: next %d, seen %v, %v; want 1..5 and next 6", next, seen, err)
	}

	var replayed []uint64
	res, err := Recover(dir, func(r Record) error {
		replayed = append(replayed, r.Seq)
		return nil
	}, nil)
	if err != nil || !res.Truncated || res.LastSeq != 5 || len(replayed) != 5 {
		t.Fatalf("recover: %+v, replayed %v, %v; want 1..5 and a truncation", res, replayed, err)
	}
	fi, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != corruptAt {
		t.Fatalf("recovered segment is %d bytes, want %d: truncated at the corrupt record", fi.Size(), corruptAt)
	}
}

// TestAllocsScanSegments: a scan allocates per call and per segment,
// never per record, so ten times the records cost no more allocations.
func TestAllocsScanSegments(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	scan := func(records uint64) float64 {
		dir := t.TempDir()
		writeSegFile(t, dir, 1, records)
		return testing.AllocsPerRun(20, func() {
			next, err := ScanSegments(dir, 1, func(uint64, []byte) error { return nil })
			if err != nil || next != records+1 {
				t.Fatalf("scan of %d records: next %d, %v", records, next, err)
			}
		})
	}
	few, many := scan(100), scan(1000)
	if many > few {
		t.Fatalf("a scan of 1000 records allocates %v times, of 100 records %v: allocation grows with records", many, few)
	}
}
