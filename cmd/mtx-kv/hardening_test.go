package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modtx/internal/fault"
	"modtx/internal/kv"
	"modtx/internal/wal"
)

// startHardened runs a server with the given limits on a loopback
// listener and returns a dialer for it.
func startHardened(t *testing.T, srv *server) func() (net.Conn, *bufio.Reader) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.serve(l)
	return func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
}

func send(t *testing.T, conn net.Conn, cmd string) {
	t.Helper()
	if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
		t.Fatal(err)
	}
}

func recvLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\n")
}

// TestOverloadShed pins the admission valve: with every in-flight token
// held by a parked blocking command, store commands answer
// "ERR overloaded" (and are counted), exempt verbs still work, and
// normal service resumes once the tokens free up.
func TestOverloadShed(t *testing.T) {
	srv := &server{
		store:  kv.New(kv.WithShards(4)),
		limits: limits{maxInflight: 1},
	}
	srv.initLimits() // here, not in serve's goroutine: the test reads the token channel
	dial := startHardened(t, srv)

	parked, pr := dial()
	probe, qr := dial()
	// The parked BGET holds the single token until its 2s timeout. Wait
	// until it has it: a probe holding the token at the instant the BGET
	// asks would shed the BGET instead, and nothing would be parked.
	send(t, parked, "BGET nosuchkey 2000")
	deadline := time.Now().Add(time.Second)
	for len(srv.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the BGET never took the in-flight token")
		}
		time.Sleep(time.Millisecond)
	}

	// Poll until the shed path engages.
	deadline = time.Now().Add(time.Second)
	for {
		send(t, probe, "GET x")
		if resp := recvLine(t, qr); resp == "ERR overloaded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe was never shed while the token was held")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.shed.Load(); got == 0 {
		t.Fatal("shed counter not incremented")
	}
	// Exempt verbs bypass admission: the operator can still reach the
	// server while it sheds.
	send(t, probe, "PING")
	if resp := recvLine(t, qr); resp != "PONG" {
		t.Fatalf("PING while overloaded: %q", resp)
	}
	send(t, probe, "STATS")
	if resp := recvLine(t, qr); !strings.HasPrefix(resp, "STATS") {
		t.Fatalf("STATS while overloaded: %q", resp)
	}

	// Recovery: the BGET times out, releasing its token, and the next
	// store command is served normally.
	if resp := recvLine(t, pr); resp != "TIMEOUT" {
		t.Fatalf("parked BGET: %q", resp)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		send(t, probe, "GET x")
		if resp := recvLine(t, qr); resp == "NIL" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered after the token freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMaxConnsBackpressure pins the accept valve: with -maxconns 1 a
// second connection is not served until the first hangs up — it waits
// in the listen backlog rather than costing a handler.
func TestMaxConnsBackpressure(t *testing.T) {
	srv := &server{
		store:  kv.New(kv.WithShards(4)),
		limits: limits{maxConns: 1},
	}
	dial := startHardened(t, srv)

	first, fr := dial()
	send(t, first, "PING")
	if resp := recvLine(t, fr); resp != "PONG" {
		t.Fatalf("first conn: %q", resp)
	}

	// The second dial succeeds (kernel backlog) but no handler reads it.
	second, sr := dial()
	send(t, second, "PING")
	second.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := sr.ReadString('\n'); err == nil {
		t.Fatal("second conn was served while the house was full")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want read timeout, got %v", err)
	}

	// Freeing the slot lets the accept loop pick it up and answer the
	// PING that has been sitting in the socket buffer.
	first.Close()
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := sr.ReadString('\n')
	if err != nil || strings.TrimRight(line, "\n") != "PONG" {
		t.Fatalf("second conn after slot freed: %q, %v", line, err)
	}
}

// TestMaxRequestSize pins the request cap: an oversized line answers
// "ERR request too large" and disconnects (the next line boundary is an
// unbounded read away), while lines under the cap work as usual.
func TestMaxRequestSize(t *testing.T) {
	srv := &server{
		store:  kv.New(kv.WithShards(4)),
		limits: limits{maxReq: 128},
	}
	dial := startHardened(t, srv)

	conn, r := dial()
	send(t, conn, "SET small value")
	if resp := recvLine(t, r); resp != "OK" {
		t.Fatalf("under-cap SET: %q", resp)
	}
	send(t, conn, "SET big "+strings.Repeat("x", 4096))
	if resp := recvLine(t, r); resp != "ERR request too large" {
		t.Fatalf("oversized SET: %q", resp)
	}
	// EOF or RST both mean the server hung up (RST when its receive
	// buffer still held unread request bytes at close).
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection not closed after oversized request")
	}
}

// TestIdleTimeout pins the idle valve: a connection that sends nothing
// for the timeout is dropped; one that keeps talking is not.
func TestIdleTimeout(t *testing.T) {
	srv := &server{
		store:  kv.New(kv.WithShards(4)),
		limits: limits{idle: 100 * time.Millisecond},
	}
	dial := startHardened(t, srv)

	conn, r := dial()
	send(t, conn, "PING")
	if resp := recvLine(t, r); resp != "PONG" {
		t.Fatalf("PING: %q", resp)
	}
	// Go quiet: the server's read deadline fires and it hangs up.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection not dropped: %v", err)
	}
}

// TestPanicRecovery pins per-connection containment: a handler panic
// (provoked here by a nil store) costs exactly that connection — it is
// counted, the process survives, and new connections are served.
func TestPanicRecovery(t *testing.T) {
	srv := &server{} // nil store: any store command panics in exec
	dial := startHardened(t, srv)

	bad, br := dial()
	send(t, bad, "GET boom")
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("panicked connection not closed: %v", err)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The accept loop survived: a fresh connection gets full service
	// from the verbs that don't touch the store.
	good, gr := dial()
	send(t, good, "PING")
	if resp := recvLine(t, gr); resp != "PONG" {
		t.Fatalf("PING after panic: %q", resp)
	}
}

// TestAdminDegraded pins the operator surface of degraded mode: once a
// WAL fault latches, writes are refused, /healthz flips to 503 naming
// the cause and /metrics exposes the degraded gauge, the shed-write
// counter, and the admission-shed counter.
func TestAdminDegraded(t *testing.T) {
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{})
	store, err := kv.Open(
		kv.WithDurability(t.TempDir(), wal.Fsync),
		kv.WithShards(4),
		kv.WithWALFS(dfs),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := &server{store: store}
	srv.shed.Add(3) // as if admission had shed three commands
	ts := httptest.NewServer(adminMuxFor(srv))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthy /healthz: %d %q", code, body)
	}

	dfs.FailNextWrite(fault.ErrIO)
	// At the fsync level the write whose batch hit the fault is refused
	// too.
	if err := store.Set("probe", []byte("x")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("write during fault: got %v, want ErrDegraded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if deg, _ := store.Degraded(); deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never transitioned to degraded")
		}
		time.Sleep(time.Millisecond)
	}

	if err := store.Set("probe", []byte("y")); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("write after fault: got %v, want ErrDegraded", err)
	}
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded /healthz: %d %q", code, body)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		"mtxkv_degraded 1",
		"mtxkv_shed_total 3",
		"mtxkv_wal_shed_writes_total ",
		"mtxkv_conn_panics_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
