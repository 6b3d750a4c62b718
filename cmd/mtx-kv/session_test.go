package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modtx/internal/kv"
)

// countingConn counts the Writes the handler makes on its side of a
// connection: one Write is one write(2) on a socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeSession runs handleConn over an in-memory pipe. A pipe hands each
// client Write to the handler whole (as far as its read buffer goes), so
// what arrives in one wakeup is the test's to choose.
func pipeSession(t *testing.T, srv *server) (client net.Conn, served *countingConn) {
	t.Helper()
	srv.initLimits()
	client, handler := net.Pipe()
	served = &countingConn{Conn: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(served)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	client.SetDeadline(time.Now().Add(10 * time.Second))
	return client, served
}

func readLines(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	lines := make([]string, n)
	for i := range lines {
		lines[i] = recvLine(t, r)
	}
	return lines
}

// TestPipelinedRepliesCoalesce pins the point of the connection loop:
// what arrives in one read leaves in one write, at depth 16 and at
// depth 1 alike.
func TestPipelinedRepliesCoalesce(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(4))}
	client, served := pipeSession(t, srv)
	r := bufio.NewReader(client)

	batch := strings.Join([]string{
		"SET a one", "GET a", "FGET a", "ADD n 2", "ADD n 3", "GET n", "MSET x 1 y 2",
		"MGET a x nope", "TXN ADD p -1 q 1", "TXN DEL x nope", "DEL y", "GET y",
		"NOPE", "SET", "ping", "GET a",
	}, "\n") + "\n"
	want := []string{
		"OK", "VALUE one", "VALUE one", "VALUE 2", "VALUE 5", "VALUE 5", "OK",
		"VALUES 3", "VALUE one", "VALUE 1", "NIL", "VALUES -1 1", "VALUES 1 0", "VALUE 1", "NIL",
		"ERR unknown command NOPE", "ERR usage: SET key value", "PONG", "VALUE one",
	}
	if _, err := client.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	for i, got := range readLines(t, r, len(want)) {
		if got != want[i] {
			t.Errorf("reply line %d: got %q, want %q", i, got, want[i])
		}
	}
	if n := served.writes.Load(); n != 1 {
		t.Errorf("16 commands in one read were answered in %d writes, want 1", n)
	}

	if _, err := client.Write([]byte("PING\n")); err != nil {
		t.Fatal(err)
	}
	if got := recvLine(t, r); got != "PONG" {
		t.Fatalf("PING: %q", got)
	}
	if n := served.writes.Load(); n != 2 {
		t.Errorf("one more command took %d more writes, want 1", n-1)
	}
	// 17 commands, 2 flushes: the server can say so itself.
	if cmds, flushes := srv.wireCommands.Load(), srv.wireFlushes.Load(); cmds != 17 || flushes != 2 {
		t.Errorf("wire totals: %d commands in %d flushes, want 17 in 2", cmds, flushes)
	}
}

// protocolScript exercises every parsing rule the line protocol has;
// protocolReplies is, byte for byte, what the server said to it before
// it parsed from the read buffer.
var protocolScript = []string{
	"PING",
	"get nokey",
	"SET a hello  world  \t ", // the value keeps its inner and trailing blanks
	"GET a",
	"fGeT a\r",                    // CRLF client, any case
	"  \tSET   b\t padded  value", // runs of blanks before and between tokens
	"GET b",
	"SET c x\r\r", // every trailing CR goes, nothing else
	"GET c",
	"SET\u00a0d\u00a0 nbsp\u2003separated", // white space is what strings.Fields splits on
	"GET d",
	"",
	" \t \r",
	"ADD ctr 3",
	"add ctr 5",
	"ADD ctr x",
	"ADD ctr",
	"ADD a 1",
	"MSET x 1 y two z 3",
	"MGET x y z missing a",
	"MSET x",
	"MGET",
	"TXN ADD c1 -1 c2 1",
	"txn add c1 -1 c2 1",
	"TXN ADD c1 q",
	"TXN ADD c1",
	"TXN DEL x nope",
	"TXN DEL",
	"TXN MUL x 2",
	"TXN",
	"DEL a missing",
	"DEL",
	"GET a",
	"GET a b",
	"SET a",
	"SET",
	"NOPE nope",
	"STATS NOPE",
	"STATS RESET",
	"BGET k",
	"BGET k 0",
	"WATCH",
	"WATCH k x",
	"QUIT",
	"PING", // after QUIT: never answered
}

const protocolReplies = "PONG\n" +
	"NIL\n" +
	"OK\n" +
	"VALUE hello  world  \t \n" +
	"VALUE hello  world  \t \n" +
	"OK\n" +
	"VALUE padded  value\n" +
	"OK\n" +
	"VALUE x\n" +
	"OK\n" +
	"VALUE nbsp\u2003separated\n" +
	"VALUE 3\n" +
	"VALUE 8\n" +
	"ERR delta: strconv.ParseInt: parsing \"x\": invalid syntax\n" +
	"ERR usage: ADD key delta\n" +
	"ERR kv: key \"a\": kv: operation against a key holding the wrong kind of value\n" +
	"OK\n" +
	"VALUES 5\nVALUE 1\nVALUE two\nVALUE 3\nNIL\nVALUE hello  world  \t \n" +
	"ERR usage: MSET key value [key value ...] (token values)\n" +
	"ERR usage: MGET key...\n" +
	"VALUES -1 1\n" +
	"VALUES -2 2\n" +
	"ERR delta for c1: strconv.ParseInt: parsing \"q\": invalid syntax\n" +
	"ERR usage: TXN ADD key delta [key delta ...]\n" +
	"VALUES 1 0\n" +
	"ERR usage: TXN DEL key...\n" +
	"ERR unknown TXN op MUL (want ADD or DEL)\n" +
	"ERR usage: TXN {ADD key delta [key delta ...] | DEL key...}\n" +
	"VALUE 1\n" +
	"ERR usage: DEL key...\n" +
	"NIL\n" +
	"ERR usage: GET key\n" +
	"ERR usage: SET key value\n" +
	"ERR usage: SET key value\n" +
	"ERR unknown command NOPE\n" +
	"ERR unknown STATS sub NOPE (want SHARDS, HIST, HOT, WAL, REPL or RESET)\n" +
	"OK\n" +
	"ERR usage: BGET key timeoutMs\n" +
	"ERR timeoutMs must be a positive integer\n" +
	"ERR usage: WATCH key [timeoutMs]\n" +
	"ERR timeoutMs must be a positive integer\n" +
	"BYE\n"

// TestPipeliningChangesNoBytes sends one script a line per write and
// again in a single write: the reply bytes are the same, and are what
// they have always been.
func TestPipeliningChangesNoBytes(t *testing.T) {
	run := func(t *testing.T, writes []string) string {
		srv := &server{store: kv.New(kv.WithShards(4))}
		client, _ := pipeSession(t, srv)
		var out bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(&out, client) // until the handler hangs up after QUIT
		}()
		for _, w := range writes {
			if _, err := client.Write([]byte(w)); err != nil {
				break // the handler is gone: QUIT was not the last line
			}
		}
		wg.Wait()
		return out.String()
	}
	perLine := make([]string, len(protocolScript))
	for i, l := range protocolScript {
		perLine[i] = l + "\n"
	}
	if got := run(t, perLine); got != protocolReplies {
		t.Errorf("a line per write:\n got %q\nwant %q", got, protocolReplies)
	}
	if got := run(t, []string{strings.Join(perLine, "")}); got != protocolReplies {
		t.Errorf("one write:\n got %q\nwant %q", got, protocolReplies)
	}
}

// TestReplyNotHeldBehindBlockingVerb: a reply already earned goes out
// before a BGET in the same batch parks, not after it wakes.
func TestReplyNotHeldBehindBlockingVerb(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(4))}
	waiter, _ := pipeSession(t, srv)
	wr := bufio.NewReader(waiter)
	if _, err := waiter.Write([]byte("SET a 1\nBGET missing 10000\n")); err != nil {
		t.Fatal(err)
	}
	// Nothing has created the key, so this is read while the BGET is
	// parked (or about to): held back, it would outlast the deadline.
	waiter.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got := recvLine(t, wr); got != "OK" {
		t.Fatalf("SET before BGET: %q", got)
	}

	creator, _ := pipeSession(t, srv)
	cr := bufio.NewReader(creator)
	send(t, creator, "SET missing found")
	if got := recvLine(t, cr); got != "OK" {
		t.Fatalf("creating SET: %q", got)
	}
	if got := recvLine(t, wr); got != "VALUE found" {
		t.Fatalf("BGET after the key was created: %q", got)
	}
}

// TestBatchEndsMidway: QUIT, or a line over -maxreq, in the middle of a
// batch. Every earlier reply arrives, then the last word, then EOF.
func TestBatchEndsMidway(t *testing.T) {
	for _, tc := range []struct{ name, batch, want string }{
		{"QUIT", "PING\nSET a 1\nQUIT\nPING\nGET a\n", "PONG\nOK\nBYE\n"},
		{"maxreq", "PING\nSET a 1\nSET big " + strings.Repeat("x", 200) + "\nPING\n",
			"PONG\nOK\nERR request too large\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &server{
				store:  kv.New(kv.WithShards(4)),
				limits: limits{maxReq: 64},
			}
			client, _ := pipeSession(t, srv)
			go client.Write([]byte(tc.batch)) // cut short when the handler hangs up
			got, err := io.ReadAll(client)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSubscribeCoalescesQueuedEvents: events that queue while a write is
// outstanding leave together in the next one, in stream order.
func TestSubscribeCoalescesQueuedEvents(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(1))}
	client, served := pipeSession(t, srv)
	r := bufio.NewReader(client)
	send(t, client, "SUBSCRIBE ev:")
	if got := recvLine(t, r); got != "OK subscribed" {
		t.Fatalf("SUBSCRIBE: %q", got)
	}
	// Nobody reads the pipe while these commit, so the handler's write
	// of the first event (and whatever it took with it) blocks and the
	// rest pile up in the subscription behind it.
	const events = 64
	for i := 0; i < events; i++ {
		if err := srv.store.Set("ev:k", []byte{'a' + byte(i%26)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, line := range readLines(t, r, events) {
		if want := "EVENT " + strconv.Itoa(i+1) + " set ev:k " + string(rune('a'+i%26)); line != want {
			t.Fatalf("event %d: got %q, want %q", i, line, want)
		}
	}
	// The ack, the write that was blocked, the one that took the rest.
	if n := served.writes.Load(); n > 3 {
		t.Errorf("%d events left in %d writes, want at most 2", events, n-1)
	}
}

// TestWireCountersExported: the two totals are on /metrics and in STATS.
func TestWireCountersExported(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(4))}
	client, _ := pipeSession(t, srv)
	r := bufio.NewReader(client)
	if _, err := client.Write([]byte("PING\nPING\nPING\n")); err != nil {
		t.Fatal(err)
	}
	readLines(t, r, 3)
	send(t, client, "STATS")
	if got := recvLine(t, r); !strings.HasSuffix(got, " wire: commands=3 flushes=1") {
		t.Errorf("STATS: %q", got)
	}
	ts := httptest.NewServer(adminMuxFor(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nmtxkv_wire_commands_total 4\n", "\nmtxkv_wire_flushes_total 2\n"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestAllocsServerCommand guards the parse: executing a command costs
// what the store call costs plus one allocation, the key operand
// becoming a string. (It used to cost a string for the line, two field
// slices and, for SET, a second copy of the value on top.)
func TestAllocsServerCommand(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping shows up in AllocsPerRun")
	}
	store := kv.New(kv.WithShards(4))
	// No connection: nothing below parks, quits or fills the output.
	c := &session{s: &server{store: store}, out: make([]byte, 0, 1024)}
	val := bytes.Repeat([]byte("v"), 128)
	if err := store.Set("user:00000001", val); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CounterAdd("hits:000001", 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		line  string
		store func()
	}{
		{"FGET user:00000001", func() { store.FastGet("user:00000001") }},
		{"GET user:00000001", func() { store.Get("user:00000001") }},
		{"SET user:00000001 " + string(val), func() { store.Set("user:00000001", val) }},
		{"ADD hits:000001 1", func() { store.CounterAdd("hits:000001", 1) }},
	} {
		line := []byte(tc.line)
		inStore := testing.AllocsPerRun(100, tc.store)
		got := testing.AllocsPerRun(100, func() {
			c.out = c.out[:0]
			if !c.command(line) {
				t.Fatal("connection ended")
			}
		})
		if got > inStore+1 {
			t.Errorf("%.20s: %v allocs/op, of which the store call makes %v; want at most one more", tc.line, got, inStore)
		}
	}
}
