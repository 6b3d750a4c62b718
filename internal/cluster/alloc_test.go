package cluster

import (
	"net"
	"testing"

	"modtx/internal/wal"
)

// discardConn is a net.Conn whose writes go nowhere; it counts them.
type discardConn struct {
	net.Conn
	writes int
}

func (c *discardConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestAllocsForward: the live tail checks each record of a follower
// batch with wal.WalkRecord and queues a frame for it; a batch of 64
// records goes out in one write and allocates nothing.
func TestAllocsForward(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var batch []byte
	for seq := uint64(1); seq <= 64; seq++ {
		var err error
		batch, err = wal.AppendRecord(batch, 0, seq, []wal.Op{
			{Kind: wal.KindSet, Key: "user:00000042", Val: make([]byte, 128)},
			{Kind: wal.KindCounterSet, Key: "ctr", N: int64(seq)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := &Streamer{}
	conn := &discardConn{}
	s := &session{st: st, conn: conn}
	if next, err := st.forward(s, batch, 1); err != nil || next != 65 {
		t.Fatalf("forward: next %d, %v", next, err)
	}
	if conn.writes != 1 {
		t.Fatalf("forwarding 64 records: %d writes, want 1", conn.writes)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if next, err := st.forward(s, batch, 1); err != nil || next != 65 {
			t.Fatalf("forward: next %d, %v", next, err)
		}
	}); avg != 0 {
		t.Fatalf("forwarding 64 records: %v allocs/batch, want 0", avg)
	}
}
