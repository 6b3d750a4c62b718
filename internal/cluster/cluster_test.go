package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"modtx/internal/kv"
	"modtx/internal/wal"
)

func TestProtoRoundTrip(t *testing.T) {
	got, err := ReadHello(bytes.NewReader(AppendHello(nil, 1<<40+7)))
	if err != nil || got != 1<<40+7 {
		t.Fatalf("hello round trip: %d, %v", got, err)
	}

	var wire []byte
	wire = AppendFrame(wire, FrameRecord, 3, []byte("payload"))
	wire = AppendFrame(wire, FramePing, 0, nil)
	r := bytes.NewReader(wire)
	f, buf, err := ReadFrame(r, nil)
	if err != nil || f.Type != FrameRecord || f.Shard != 3 || string(f.Payload) != "payload" {
		t.Fatalf("frame 1: %+v, %v", f, err)
	}
	f, _, err = ReadFrame(r, buf)
	if err != nil || f.Type != FramePing || len(f.Payload) != 0 {
		t.Fatalf("frame 2: %+v, %v", f, err)
	}
}

// testPrimary boots a durable primary with a streamer on a loopback
// listener, returning the store, the streamer, the address, and a
// cleanup.
func testPrimary(t *testing.T, opts ...kv.Option) (*kv.Store, *Streamer, string, func()) {
	t.Helper()
	dir := t.TempDir()
	opts = append([]kv.Option{
		kv.WithDurability(dir, wal.Batch),
		kv.WithShards(4),
		kv.WithMetrics(false),
	}, opts...)
	s, err := kv.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamer(s)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Serve(ln)
	}()
	return s, st, ln.Addr().String(), func() {
		st.Close()
		<-done
		s.Close()
	}
}

func startClient(t *testing.T, addr string, r *kv.Replica) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{Addr: addr, Replica: r}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := c.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("client: %v", err)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func distinctShardPair(s *kv.Store, prefix string) (a, b string) {
	a = prefix + "-a"
	for n := 0; ; n++ {
		b = fmt.Sprintf("%s-b%d", prefix, n)
		if s.ShardOf(b) != s.ShardOf(a) {
			return a, b
		}
	}
}

// TestClusterLiveReplication is the wire-level tentpole test: catch-up
// of pre-handshake writes, live tail of post-handshake writes
// (including cross-shard transactions), convergence, and the replica
// never serving a partial cross-shard transaction while it streams.
func TestClusterLiveReplication(t *testing.T) {
	p, _, addr, cleanup := testPrimary(t)
	defer cleanup()

	// Catch-up material: written before any replica exists.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("pre-%02d", i)
		if err := p.Set(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a, b := distinctShardPair(p, "acct")
	const seed = int64(1000)
	if err := p.Update([]string{a, b}, func(t *kv.Txn) error {
		t.Add(a, seed)
		t.Add(b, seed)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	r, err := kv.NewReplica(kv.WithShards(4), kv.WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	stop := startClient(t, addr, r)
	defer stop()
	waitFor(t, "catch-up", r.Ready)

	// Live phase: cross-shard transfers on the primary while replica
	// readers check the invariant sum.
	stopRead := make(chan struct{})
	var violations atomic.Int64
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			var sum int64
			var both bool
			if err := r.Store().View([]string{a, b}, func(t *kv.ViewTxn) error {
				va, oka := t.Counter(a)
				vb, okb := t.Counter(b)
				both = oka && okb
				sum = va + vb
				return nil
			}); err != nil {
				violations.Add(1)
				return
			}
			if both && sum != 2*seed {
				violations.Add(1)
			}
		}
	}()

	const transfers = 150
	for i := 0; i < transfers; i++ {
		if err := p.Update([]string{a, b}, func(t *kv.Txn) error {
			t.Add(a, -1)
			t.Add(b, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Set("live-done", []byte("yes")); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "live convergence", func() bool {
		var va, vb int64
		var ok bool
		r.Store().View([]string{a, b}, func(t *kv.ViewTxn) error {
			va, _ = t.Counter(a)
			vb, ok = t.Counter(b)
			return nil
		})
		return ok && va == seed-transfers && vb == seed+transfers
	})
	close(stopRead)
	<-readDone
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d atomicity violations on the replica", v)
	}
	if xa := r.Stats().XApplied; xa < transfers+1 {
		t.Fatalf("xapplied = %d, want at least %d", xa, transfers+1)
	}
	v, ok, err := r.Store().Get("pre-07")
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("pre-07 = %q, %v, %v", v, ok, err)
	}
}

// TestClusterReconnect kills the replica's connection mid-stream and
// checks it re-catches up from its position without double-applying.
func TestClusterReconnect(t *testing.T) {
	p, _, addr, cleanup := testPrimary(t)
	defer cleanup()
	if _, err := p.CounterAdd("ctr", 5); err != nil {
		t.Fatal(err)
	}

	r, err := kv.NewReplica(kv.WithShards(4), kv.WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	stop := startClient(t, addr, r)
	waitFor(t, "first catch-up", r.Ready)
	stop() // drop the connection entirely

	if _, err := p.CounterAdd("ctr", 7); err != nil {
		t.Fatal(err)
	}
	stop2 := startClient(t, addr, r)
	defer stop2()
	waitFor(t, "re-catch-up", func() bool {
		v, ok, _ := r.Store().CounterGet("ctr")
		return ok && v == 12
	})
}

// TestClusterSnapshotCatchup forces the compacted path: the primary
// checkpoints and compacts its log before the replica ever connects,
// so catch-up must go through a snapshot transfer (FrameSnapBegin).
func TestClusterSnapshotCatchup(t *testing.T) {
	// Tiny segments so rotations close segments and Checkpoint's
	// compaction can delete them — forcing ErrCompacted for a replica
	// starting from sequence 1. The log rotates a full segment only
	// after the sync a Checkpoint waits on, so the first Checkpoint may
	// still find segment 1 open, and the rotation's own checkpoint is
	// skipped while it runs. The second, after more records, finds
	// segment 1 closed and covered, and deletes it.
	p, st, addr, cleanup := testPrimary(t, kv.WithWALSegmentBytes(256))
	defer cleanup()
	for i := 0; i < 80; i++ {
		if err := p.Set(fmt.Sprintf("snap-%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i == 39 || i == 79 {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	r, err := kv.NewReplica(kv.WithShards(4), kv.WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	stop := startClient(t, addr, r)
	defer stop()
	waitFor(t, "snapshot catch-up", r.Ready)
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("snap-%02d", i)
		if v, ok, err := r.Store().Get(k); err != nil || !ok || string(v) != "x" {
			t.Fatalf("%s = %q, %v, %v", k, v, ok, err)
		}
	}
	if st.Stats().Snapshots == 0 {
		t.Fatal("catch-up did not use the snapshot path")
	}
}

// TestClusterShardMismatch: records route by key on the replica, so
// its shard count need not match the primary's — a 64-shard primary's
// replica at 16 shards converges, cross-shard transfers included.
func TestClusterShardMismatch(t *testing.T) {
	p, _, addr, cleanup := testPrimary(t, kv.WithShards(64))
	defer cleanup()
	r, err := kv.NewReplica(kv.WithShards(16), kv.WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	for i := 0; i < 100; i++ {
		if err := p.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := startClient(t, addr, r)
	defer stop()
	waitFor(t, "catch-up", r.Ready)
	a, b := distinctShardPair(p, "acct")
	for i := 0; i < 50; i++ {
		if err := p.Update([]string{a, b}, func(t *kv.Txn) error {
			t.Add(a, -1)
			t.Add(b, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.ReplPosition()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "convergence", func() bool { return r.Position() >= want })
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, ok := r.Store().FastGet(k); !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("%s = %q, %v on the replica", k, v, ok)
		}
	}
	if na, _ := r.Store().FastCounterGet(a); na != -50 {
		t.Fatalf("%s = %d on the replica, want -50", a, na)
	}
	if nb, _ := r.Store().FastCounterGet(b); nb != 50 {
		t.Fatalf("%s = %d on the replica, want 50", b, nb)
	}
}
