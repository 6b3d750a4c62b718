package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/wal"
)

// protoClient is a tiny line-protocol client for driving serveUntil
// end to end.
type protoClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialProto(t *testing.T, addr string) *protoClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &protoClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *protoClient) roundtrip(cmd string) string {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(cmd + "\n")); err != nil {
		c.t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	return strings.TrimRight(line, "\n")
}

// TestServeGracefulShutdown drives the whole SIGTERM path in-process:
// writes (including a cross-shard TXN) through a live connection, then
// a signal — and asserts the shutdown was clean enough that the next
// boot performs no recovery-repair work at all: no torn tail, all data
// present.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	open := func() *kv.Store {
		t.Helper()
		s, err := kv.Open(kv.WithShards(4), kv.WithDurability(dir, wal.Fsync))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	srv := &server{store: open(), drainWait: 200 * time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveUntil(srv, l, stop) }()

	c := dialProto(t, l.Addr().String())
	if got := c.roundtrip("SET alpha durable value"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	if got := c.roundtrip("TXN ADD c1 3 c2 -3"); got != "VALUES 3 -3" {
		t.Fatalf("TXN ADD: %q", got)
	}
	// Leave the connection open: the drain must not hang on an idle
	// keep-alive — it force-closes it after drainWait.
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	c.conn.Close()

	// A clean stop leaves nothing to repair: recovery replays the log
	// without truncating a byte.
	s2 := open()
	defer s2.Close()
	ri := s2.WALStats().Recover
	if ri.Truncations != 0 || ri.TruncatedBytes != 0 {
		t.Fatalf("recovery repaired after a clean stop: %+v", ri)
	}
	if v, ok, _ := s2.Get("alpha"); !ok || string(v) != "durable value" {
		t.Fatalf("alpha = %q, %v after restart", v, ok)
	}
	if v, ok, _ := s2.CounterGet("c1"); !ok || v != 3 {
		t.Fatalf("c1 = %d, %v after restart", v, ok)
	}
}

// TestServeGracefulShutdownDrainsInFlight checks the drain half: a
// command in flight when the signal lands still completes and the
// client reads its full reply before the connection dies.
func TestServeGracefulShutdownDrainsInFlight(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(2)), drainWait: 5 * time.Second}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveUntil(srv, l, stop) }()

	c := dialProto(t, l.Addr().String())
	if got := c.roundtrip("SET k v"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	// BGET parks server-side; the signal arrives while it waits. The
	// shutdown must drain it: the writer below satisfies the wait and
	// the parked connection still gets its VALUE line.
	bgetDone := make(chan string, 1)
	var sent atomic.Bool
	go func() {
		sent.Store(true)
		bgetDone <- c.roundtrip("BGET later 5000")
	}()
	for !sent.Load() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let BGET park
	stop <- syscall.SIGTERM
	time.Sleep(20 * time.Millisecond) // listener closed, drain running
	if err := srv.store.Set("later", []byte("arrived")); err != nil {
		t.Fatal(err)
	}
	if got := <-bgetDone; got != "VALUE arrived" {
		t.Fatalf("parked BGET across shutdown: %q", got)
	}
	c.conn.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// TestReadOnlyReplicaCommands pins the replica server surface: every
// mutating verb answers ERR read-only replica, reads work, and STATS
// REPL emits the merged replica document.
func TestReadOnlyReplicaCommands(t *testing.T) {
	r, err := kv.NewReplica(kv.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	client := &cluster.Client{Addr: "primary.invalid:7800", Replica: r}
	srv := &server{store: r.Store(), readonly: true, repl: client, replica: r}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.serve(l)

	// Seed through the replication apply path, not the wire.
	if err := r.ApplyRecords([]wal.Record{{Seq: 1,
		Ops: []wal.Op{{Kind: wal.KindSet, Key: "seeded", Val: []byte("from-primary")}}}}); err != nil {
		t.Fatal(err)
	}

	c := dialProto(t, l.Addr().String())
	defer c.conn.Close()
	for _, cmd := range []string{
		"SET k v", "DEL k", "ADD ctr 1", "MSET a 1 b 2", "TXN ADD a 1 b -1",
	} {
		if got := c.roundtrip(cmd); got != "ERR read-only replica" {
			t.Fatalf("%s on replica: %q", cmd, got)
		}
	}
	if got := c.roundtrip("GET seeded"); got != "VALUE from-primary" {
		t.Fatalf("GET on replica: %q", got)
	}
	if got := c.roundtrip("FGET seeded"); got != "VALUE from-primary" {
		t.Fatalf("FGET on replica: %q", got)
	}

	var doc struct {
		Role      string `json:"role"`
		Primary   string `json:"primary"`
		Shards    int    `json:"shards"`
		Watermark uint64 `json:"watermark"`
		Applied   uint64 `json:"applied"`
	}
	line := c.roundtrip("STATS REPL")
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("STATS REPL %q: %v", line, err)
	}
	if doc.Role != "replica" || doc.Primary != "primary.invalid:7800" ||
		doc.Shards != 4 || doc.Watermark != 1 || doc.Applied != 1 {
		t.Fatalf("STATS REPL doc: %+v", doc)
	}
}

// TestStatsReplPrimary checks the primary-side STATS REPL document and
// that a serve-shaped server without any replication role still answers.
func TestStatsReplPrimary(t *testing.T) {
	dir := t.TempDir()
	store, err := kv.Open(kv.WithShards(2), kv.WithDurability(dir, wal.None))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	st, err := cluster.NewStreamer(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := &server{store: store, streamer: st}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.serve(l)

	c := dialProto(t, l.Addr().String())
	defer c.conn.Close()
	var doc cluster.StreamerStats
	line := c.roundtrip("STATS REPL")
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("STATS REPL %q: %v", line, err)
	}
	if doc.Role != "primary" {
		t.Fatalf("role = %q, want primary", doc.Role)
	}

	// No role at all: still a JSON object, role "none".
	plain := &server{store: kv.New(kv.WithShards(1))}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go plain.serve(l2)
	c2 := dialProto(t, l2.Addr().String())
	defer c2.conn.Close()
	if got := c2.roundtrip("STATS REPL"); got != `{"role":"none"}` {
		t.Fatalf("STATS REPL without a role: %q", got)
	}
}
