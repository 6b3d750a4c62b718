package main

import (
	"bufio"
	"encoding/json"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"modtx/internal/kv"
	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// TestServerProtocol drives the TCP server end to end over a loopback
// connection on every registered engine, including arbitrary
// (space-containing) string values, the counter lane, and deletion.
func TestServerProtocol(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			srv := &server{store: kv.New(kv.WithShards(4), kv.WithEngine(e))}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go srv.serve(l)

			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			readLine := func() string {
				t.Helper()
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				return strings.TrimRight(line, "\n")
			}
			roundtrip := func(cmd string) string {
				t.Helper()
				if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
					t.Fatal(err)
				}
				return readLine()
			}

			for _, tc := range []struct{ cmd, want string }{
				{"PING", "PONG"},
				{"GET a", "NIL"},
				{"SET a some value with spaces", "OK"},
				{"GET a", "VALUE some value with spaces"},
				{"FGET a", "VALUE some value with spaces"},
				{"SET a short", "OK"},
				{"GET a", "VALUE short"},
				{"SET   sp\t padded  value", "OK"}, // token runs must not shift the key
				{"GET sp", "VALUE padded  value"},
				{"ADD ctr 3", "VALUE 3"},
				{"ADD ctr 5", "VALUE 8"},
				{"GET ctr", "VALUE 8"}, // counters read back as decimal
				{"FGET ctr", "VALUE 8"},
				{"ADD a 1", "ERR " + `kv: key "a": ` + kv.ErrWrongType.Error()},
				{"MSET x 1 y two z 3", "OK"},
				{"TXN ADD c1 -1 c2 1", "VALUES -1 1"},
				{"SET a", "ERR usage: SET key value"},
				{"TXN MUL x 2", "ERR unknown TXN op MUL (want ADD or DEL)"},
				{"NOPE", "ERR unknown command NOPE"},
				// Deletion round trips: DEL counts removals, the key is gone
				// on every path, and the freed key can change kind.
				{"DEL a missing", "VALUE 1"},
				{"GET a", "NIL"},
				{"FGET a", "NIL"},
				{"DEL a", "VALUE 0"},
				{"DEL ctr", "VALUE 1"},
				{"SET ctr was a counter", "OK"},
				{"GET ctr", "VALUE was a counter"},
				{"TXN DEL x y nope", "VALUES 1 1 0"},
				{"GET x", "NIL"},
				{"GET z", "VALUE 3"},
				{"DEL", "ERR usage: DEL key..."},
				{"TXN DEL", "ERR usage: TXN DEL key..."},
			} {
				if got := roundtrip(tc.cmd); got != tc.want {
					t.Errorf("%s: got %q, want %q", tc.cmd, got, tc.want)
				}
			}

			// MGET replies with a count header and one line per key; x was
			// deleted above and must be NIL.
			if got := roundtrip("MGET x y z missing"); got != "VALUES 4" {
				t.Fatalf("MGET header: got %q", got)
			}
			for i, want := range []string{"NIL", "NIL", "VALUE 3", "NIL"} {
				if got := readLine(); got != want {
					t.Errorf("MGET line %d: got %q, want %q", i, got, want)
				}
			}

			if got := roundtrip("STATS"); !strings.HasPrefix(got, "STATS kv: shards=4") {
				t.Errorf("STATS: got %q", got)
			}
			if got := roundtrip("QUIT"); got != "BYE" {
				t.Errorf("QUIT: got %q", got)
			}
		})
	}
}

// TestServerBlockingCommands drives BGET and WATCH over two loopback
// connections: one parks server-side, the other commits the change that
// wakes it. Also pins the TIMEOUT replies and usage errors.
func TestServerBlockingCommands(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			srv := &server{store: kv.New(kv.WithShards(4), kv.WithEngine(e))}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go srv.serve(l)

			dial := func() (net.Conn, *bufio.Reader) {
				t.Helper()
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				return conn, bufio.NewReader(conn)
			}
			send := func(conn net.Conn, cmd string) {
				t.Helper()
				if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
					t.Fatal(err)
				}
			}
			readLine := func(r *bufio.Reader) string {
				t.Helper()
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				return strings.TrimRight(line, "\n")
			}
			roundtrip := func(conn net.Conn, r *bufio.Reader, cmd string) string {
				t.Helper()
				send(conn, cmd)
				return readLine(r)
			}

			blocked, br := dial()
			other, or := dial()

			// Fast paths and errors first.
			if got := roundtrip(other, or, "SET live here"); got != "OK" {
				t.Fatalf("SET: %q", got)
			}
			if got := roundtrip(blocked, br, "BGET live 1000"); got != "VALUE here" {
				t.Fatalf("BGET existing: %q", got)
			}
			if got := roundtrip(blocked, br, "BGET missing 50"); got != "TIMEOUT" {
				t.Fatalf("BGET timeout: %q", got)
			}
			if got := roundtrip(blocked, br, "BGET missing nope"); got != "ERR timeoutMs must be a positive integer" {
				t.Fatalf("BGET bad timeout: %q", got)
			}
			if got := roundtrip(blocked, br, "BGET missing"); got != "ERR usage: BGET key timeoutMs" {
				t.Fatalf("BGET usage: %q", got)
			}
			if got := roundtrip(blocked, br, "WATCH live 50"); got != "TIMEOUT" {
				t.Fatalf("WATCH unchanged: %q", got)
			}
			// Absurd timeouts clamp instead of overflowing into an
			// instantly-expired context: the key exists, so the capped
			// BGET must answer with the value, not TIMEOUT.
			if got := roundtrip(blocked, br, "BGET live 99999999999999999"); got != "VALUE here" {
				t.Fatalf("BGET huge timeout: %q", got)
			}

			// BGET parks until another connection creates the key.
			send(blocked, "BGET newkey 10000")
			waitForServerPark(t, srv.store, 1)
			if got := roundtrip(other, or, "SET newkey born now"); got != "OK" {
				t.Fatalf("SET newkey: %q", got)
			}
			if got := readLine(br); got != "VALUE born now" {
				t.Fatalf("BGET woke with %q", got)
			}

			// WATCH wakes on a value change...
			parked := srv.store.Stats().Waits
			send(blocked, "WATCH live 10000")
			waitForServerPark(t, srv.store, int(parked)+1)
			if got := roundtrip(other, or, "SET live changed"); got != "OK" {
				t.Fatalf("SET live: %q", got)
			}
			if got := readLine(br); got != "VALUE changed" {
				t.Fatalf("WATCH woke with %q", got)
			}

			// ...and reports deletion as NIL.
			parked = srv.store.Stats().Waits
			send(blocked, "WATCH live 10000")
			waitForServerPark(t, srv.store, int(parked)+1)
			if got := roundtrip(other, or, "DEL live"); got != "VALUE 1" {
				t.Fatalf("DEL live: %q", got)
			}
			if got := readLine(br); got != "NIL" {
				t.Fatalf("WATCH after delete: %q", got)
			}

			// STATS surfaces the blocking counters.
			if got := roundtrip(other, or, "STATS"); !strings.Contains(got, "waits=") || !strings.Contains(got, "wakeups=") {
				t.Errorf("STATS missing blocking counters: %q", got)
			}
		})
	}
}

// TestServerStatsSubcommands drives the JSON observability subcommands
// over the wire on every engine: each reply must be one parseable JSON
// line whose content reflects the traffic just sent, and RESET must
// clear the histograms but not the cumulative counters.
func TestServerStatsSubcommands(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			srv := &server{store: kv.New(kv.WithShards(4), kv.WithEngine(e),
				kv.WithMetricsSampling(1))}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go srv.serve(l)

			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			roundtrip := func(cmd string) string {
				t.Helper()
				if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
					t.Fatal(err)
				}
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				return strings.TrimRight(line, "\n")
			}

			if got := roundtrip("SET k some value"); got != "OK" {
				t.Fatalf("SET: %q", got)
			}
			if got := roundtrip("GET k"); got != "VALUE some value" {
				t.Fatalf("GET: %q", got)
			}
			if got := roundtrip("ADD ctr 2"); got != "VALUE 2" {
				t.Fatalf("ADD: %q", got)
			}

			var shards []kv.ShardStat
			if err := json.Unmarshal([]byte(roundtrip("STATS SHARDS")), &shards); err != nil {
				t.Fatalf("STATS SHARDS not JSON: %v", err)
			}
			if len(shards) != srv.store.NumShards() {
				t.Fatalf("STATS SHARDS: %d entries, want %d", len(shards), srv.store.NumShards())
			}
			var commits uint64
			for _, sh := range shards {
				commits += sh.Stm.Commits
			}
			if commits == 0 {
				t.Fatal("STATS SHARDS shows no commits after traffic")
			}

			var hist struct {
				Ops map[string]obs.Snapshot `json:"ops"`
				Stm kv.StmLatencies         `json:"stm"`
			}
			if err := json.Unmarshal([]byte(roundtrip("STATS HIST")), &hist); err != nil {
				t.Fatalf("STATS HIST not JSON: %v", err)
			}
			if hist.Ops["get"].Count == 0 || hist.Ops["set"].Count == 0 ||
				hist.Ops["counter_add"].Count == 0 {
				t.Fatalf("STATS HIST missing op data: %+v", hist.Ops)
			}
			if hist.Stm.CommitNs.Count == 0 {
				t.Fatal("STATS HIST missing STM commit latencies")
			}

			// HOT parses as an array even when nothing is contended.
			var hot []kv.HotKey
			if err := json.Unmarshal([]byte(roundtrip("STATS HOT")), &hot); err != nil {
				t.Fatalf("STATS HOT not JSON: %v", err)
			}

			if got := roundtrip("STATS RESET"); got != "OK" {
				t.Fatalf("STATS RESET: %q", got)
			}
			if err := json.Unmarshal([]byte(roundtrip("STATS HIST")), &hist); err != nil {
				t.Fatal(err)
			}
			if hist.Ops["get"].Count != 0 {
				t.Fatal("STATS RESET left op histograms")
			}
			if got := roundtrip("STATS"); !strings.Contains(got, " commits=") ||
				strings.Contains(got, " commits=0 ") {
				t.Errorf("cumulative STATS should survive RESET: %q", got)
			}
			if got := roundtrip("STATS BOGUS"); !strings.HasPrefix(got, "ERR unknown STATS sub") {
				t.Errorf("STATS BOGUS: %q", got)
			}
		})
	}
}

// TestServerSubscribe drives the changefeed over two loopback
// connections: one subscribes to a prefix, the other commits writes.
// The subscriber must see exactly the matching commits, as EVENT lines
// in commit order (seq is the store's LSN),
// carrying the right op names and payloads — and any input must end the
// stream by closing the connection.
func TestServerSubscribe(t *testing.T) {
	srv := &server{store: kv.New(kv.WithShards(1))}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.serve(l)

	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
	readLine := func(r *bufio.Reader) string {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\n")
	}

	subConn, sr := dial()
	other, or := dial()
	roundtrip := func(cmd string) string {
		t.Helper()
		if _, err := other.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		return readLine(or)
	}

	// The ack guarantees the subscription is registered before any of
	// the writes below commit.
	if _, err := subConn.Write([]byte("SUBSCRIBE user:\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(sr); got != "OK subscribed" {
		t.Fatalf("SUBSCRIBE ack: %q", got)
	}

	if got := roundtrip("SET user:1 alice smith"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	if got := roundtrip("SET noise:x y"); got != "OK" { // filtered, but takes seq 2
		t.Fatalf("SET noise: %q", got)
	}
	if got := roundtrip("ADD user:ctr 5"); got != "VALUE 5" {
		t.Fatalf("ADD: %q", got)
	}
	if got := roundtrip("DEL user:1"); got != "VALUE 1" {
		t.Fatalf("DEL: %q", got)
	}
	for i, want := range []string{
		"EVENT 1 set user:1 alice smith", // values keep their spaces
		"EVENT 3 cset user:ctr 5",        // seq 2 was the filtered write
		"EVENT 4 del user:1",
	} {
		if got := readLine(sr); got != want {
			t.Errorf("event %d: got %q, want %q", i, got, want)
		}
	}

	// Any input ends the stream: the server closes the connection.
	if _, err := subConn.Write([]byte("anything\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadString('\n'); err == nil {
		t.Fatal("stream did not end after client input")
	}

	// A malformed SUBSCRIBE replies with usage and closes the
	// connection — it already left command mode.
	bad, br := dial()
	if _, err := bad.Write([]byte("SUBSCRIBE too many args\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(br); got != "ERR usage: SUBSCRIBE [prefix]" {
		t.Fatalf("SUBSCRIBE usage: %q", got)
	}
}

// TestServerStatsWAL pins the STATS WAL wire subcommand: one JSON line
// that parses as kv.WALStats, reporting "off" on an in-memory store and
// live append counters on a durable one.
func TestServerStatsWAL(t *testing.T) {
	drive := func(t *testing.T, srv *server) kv.WALStats {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go srv.serve(l)
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		roundtrip := func(cmd string) string {
			t.Helper()
			if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
				t.Fatal(err)
			}
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			return strings.TrimRight(line, "\n")
		}
		if got := roundtrip("SET k some value"); got != "OK" {
			t.Fatalf("SET: %q", got)
		}
		if got := roundtrip("ADD ctr 2"); got != "VALUE 2" {
			t.Fatalf("ADD: %q", got)
		}
		var ws kv.WALStats
		if err := json.Unmarshal([]byte(roundtrip("STATS WAL")), &ws); err != nil {
			t.Fatalf("STATS WAL not JSON: %v", err)
		}
		return ws
	}

	t.Run("off", func(t *testing.T) {
		ws := drive(t, &server{store: kv.New(kv.WithShards(4))})
		if ws.Level != "off" || ws.Appends != 0 {
			t.Fatalf("in-memory STATS WAL: %+v", ws)
		}
	})
	t.Run("durable", func(t *testing.T) {
		store, err := kv.Open(kv.WithShards(4), kv.WithDurability(t.TempDir(), wal.Batch))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		ws := drive(t, &server{store: store})
		if ws.Level != "batch" {
			t.Fatalf("level: %q, want batch", ws.Level)
		}
		if ws.Appends < 2 {
			t.Fatalf("appends: %d, want >= 2 after SET+ADD", ws.Appends)
		}
	})
}

// TestServerDurableRestart pins wire-level durability: values written
// over one server generation are served by the next one from the same
// data directory.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	roundtrip := func(t *testing.T, addr, cmd string) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\n")
	}

	s1, err := kv.Open(kv.WithShards(4), kv.WithDurability(dir, wal.Fsync))
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&server{store: s1}).serve(l1)
	if got := roundtrip(t, l1.Addr().String(), "SET greeting hello from gen one"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	if got := roundtrip(t, l1.Addr().String(), "ADD hits 3"); got != "VALUE 3" {
		t.Fatalf("ADD: %q", got)
	}
	l1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := kv.Open(kv.WithShards(4), kv.WithDurability(dir, wal.Fsync))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go (&server{store: s2}).serve(l2)
	if got := roundtrip(t, l2.Addr().String(), "GET greeting"); got != "VALUE hello from gen one" {
		t.Fatalf("recovered GET: %q", got)
	}
	if got := roundtrip(t, l2.Addr().String(), "ADD hits 1"); got != "VALUE 4" {
		t.Fatalf("recovered counter: %q", got)
	}
}

// TestServerSlowCommandLog pins the -slowtxn path: with a threshold of
// one nanosecond every command is "slow", and the structured log line
// carries the verb (never the value bytes) and the duration.
func TestServerSlowCommandLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil)))
	defer slog.SetDefault(prev)

	srv := &server{store: kv.New(kv.WithShards(2)), slow: time.Nanosecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("SET secret do not log this\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("SET: %q, %v", line, err)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow command") || !strings.Contains(logged, "cmd=SET") {
		t.Fatalf("slow command not logged: %q", logged)
	}
	if strings.Contains(logged, "do not log this") {
		t.Fatalf("slow log leaked the value: %q", logged)
	}
}

// lockedWriter serializes the slog handler's writes with the test's
// reads (the handler runs on the connection goroutine).
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// waitForServerPark blocks until the store has recorded at least n
// parks, so the waking command is only sent after the blocked one is
// actually asleep.
func waitForServerPark(t *testing.T, store *kv.Store, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().Waits < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("server never parked: %+v", store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineFlagRegistry pins that the -engine flag is backed by the stm
// registry, not a private switch: its help enumerates every registered
// engine and nothing else.
func TestEngineFlagRegistry(t *testing.T) {
	want := "STM engine: " + strings.Join(stm.EngineNames(), ", ")
	if help := engineFlagHelp(); help != want {
		t.Fatalf("flag help = %q, want %q", help, want)
	}
	if _, err := stm.ParseEngine("all"); err == nil {
		t.Fatal(`"all" parsed as an engine`)
	}
	// -engine adaptive is refused before serve binds anything, by the
	// registry's error naming the three engines.
	err := runServe([]string{"-engine", "adaptive"})
	if err == nil || !strings.Contains(err.Error(), "want lazy, eager, global-lock)") {
		t.Fatalf("serve -engine adaptive: err = %v, want the unknown-engine error listing three engines", err)
	}
}

// TestParseBlockTimeout pins the clamp: positive values pass through in
// milliseconds, oversized ones cap at the server's blocking ceiling (no
// int64 overflow into negative durations), garbage and non-positives
// reject, and a configured blockCap lowers the ceiling.
func TestParseBlockTimeout(t *testing.T) {
	srv := &server{}
	if d, ok := srv.parseBlockTimeout("250"); !ok || d != 250*time.Millisecond {
		t.Fatalf("250 -> %v, %v", d, ok)
	}
	if d, ok := srv.parseBlockTimeout("99999999999999999"); !ok || d != maxBlockTimeout {
		t.Fatalf("huge -> %v, %v (want clamp to %v)", d, ok, maxBlockTimeout)
	}
	for _, bad := range []string{"0", "-5", "nope", ""} {
		if _, ok := srv.parseBlockTimeout(bad); ok {
			t.Errorf("%q accepted", bad)
		}
	}
	capped := &server{limits: limits{blockCap: 5 * time.Millisecond}}
	if d, ok := capped.parseBlockTimeout("250"); !ok || d != 5*time.Millisecond {
		t.Fatalf("capped 250 -> %v, %v (want clamp to 5ms)", d, ok)
	}
}
