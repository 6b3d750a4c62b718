// Command mtx-kv serves a sharded transactional key-value store
// (internal/kv) over a minimal RESP-like text protocol, and runs a
// read-only replica of a serving primary.
//
// Usage:
//
//	mtx-kv serve [-addr :7700] [-shards 64] [-engine lazy]
//	             [-data DIR] [-durability fsync]
//	             [-replicate-addr :7800]
//	             [-admin :6060] [-slowtxn 1ms]
//	             [-maxconns 0] [-maxinflight 0] [-idletimeout 0] [-maxreq 1048576]
//	mtx-kv replica -primary host:7800 [-addr :7701] [-engine lazy]
//	             [-admin :6061] [-slowtxn 1ms]
//	             [-maxconns 0] [-maxinflight 0] [-idletimeout 0] [-maxreq 1048576]
//
// With -data, serve recovers the store from DIR's write-ahead log and
// snapshots on boot, then logs every commit — one record per
// transaction, however many shards it wrote — at the chosen
// -durability level: fsync (group commit — every acknowledged write is
// on disk), batch (interval fsync), or none (OS page cache only; the
// log survives process crashes but not power loss). A clean shutdown
// (SIGINT/SIGTERM) flushes and fsyncs the log; after a kill, the next
// boot repairs and replays a commit-order prefix. Records route by key,
// so DIR reopens under any -shards.
//
// A WAL write or sync failure latches the log and turns the store
// read-only: writes answer an error naming the cause, reads keep
// serving, and a restart over the repaired disk loses nothing
// acknowledged. A commit that raced the switch is counted
// (mtxkv_wal_shed_writes_total). A degraded store answers /healthz
// with 503 naming the cause.
//
// The overload valves (all opt-in): -maxconns caps simultaneous
// connections with accept backpressure (excess dials wait in the listen
// backlog), -maxinflight caps concurrently executing store commands —
// excess answer "ERR overloaded" immediately (PING/QUIT/STATS are
// exempt so operators keep visibility), -idletimeout drops silent
// connections and bounds stalled writes (SUBSCRIBE reads exempt), and
// -maxreq bounds a request line; longer requests answer "ERR request
// too large" and disconnect. A panic in one connection handler costs
// that connection only. See cmd/mtx-kv/limits.go.
//
// With -replicate-addr (requires -data), serve additionally ships the
// WAL to connected replicas over TCP: catch-up from segments (or the
// latest snapshot when the cursor predates compaction), then the live
// tail. mtx-kv replica dials that address and serves the read-side
// commands from its local store (64 shards, whatever the primary's)
// while applying the stream; mutating commands answer "ERR read-only
// replica". See the README's Replication section for what a replica
// observer may see (a prefix of the primary's commit order always;
// cross-shard transactions atomically, never partially).
//
// The -engine flag accepts any name from the stm engine registry (lazy,
// eager, global-lock). Load generation lives in the repository
// benchmark: go run ./benchmark.
//
// Protocol (one command per line). Values are arbitrary byte strings
// without newlines: SET takes everything after the key, so values may
// contain spaces. A key holds either a string value or an int64 counter
// (ADD / TXN ADD), fixed at first use (deleting it frees the kind);
// reads format counters as decimal.
//
// Pipelining: a client may send commands without waiting for replies.
// It gets one reply per command, in request order. The server reads
// once, executes every complete line it has, and writes the replies in
// one write, so commands that arrive together are answered together
// (mtxkv_wire_commands_total / mtxkv_wire_flushes_total, on /metrics
// and the STATS line, is how many per write). Replies never wait behind
// something that can: they are written before the next read, before a
// BGET or WATCH parks, before SUBSCRIBE starts streaming, before QUIT
// or "ERR request too large" hangs up, and whenever 64 KB are pending.
// Commands after QUIT are not executed.
//
//	PING                      -> PONG
//	GET key                   -> VALUE v | NIL      (read-only txn; no write locks)
//	FGET key                  -> VALUE v | NIL      (lock-free plain read)
//	BGET key timeoutMs        -> VALUE v | TIMEOUT  (blocking GET: parks until the
//	                             key exists, waking on the creating commit)
//	WATCH key [timeoutMs]     -> VALUE v | NIL | TIMEOUT (blocks until the key's
//	                             value or existence changes; NIL = deleted;
//	                             default timeout 60s; both commands cap the
//	                             timeout at 10min)
//	SET key value...          -> OK                 (value = rest of line)
//	DEL k1 k2 ...             -> VALUE n            (keys removed; one txn per key)
//	ADD key d                 -> VALUE n            (counter; new value)
//	MGET k1 k2 ...            -> VALUES n, then one VALUE v | NIL line per key
//	                             (one consistent lock-free cross-shard snapshot)
//	MSET k1 v1 k2 v2 ...      -> OK                 (token values, no spaces)
//	TXN ADD k1 d1 k2 d2 ...   -> VALUES n1 n2 ...   (one cross-shard txn)
//	TXN DEL k1 k2 ...         -> VALUES b1 b2 ...   (1 if removed, else 0; one txn)
//	SUBSCRIBE [prefix]        -> OK subscribed, then a stream of
//	                             EVENT seq op key [value] lines, one per
//	                             committed write under the prefix in
//	                             commit order; seq is the store's LSN
//	                             (op = set, cset, del; cset carries the
//	                             counter's new value). A slow reader
//	                             loses events, each loss reported as a
//	                             cumulative DROPPED n line. Any input (or
//	                             disconnect) ends the stream; the
//	                             connection leaves command mode for good.
//	STATS                     -> STATS ...          (aggregate counters)
//	STATS SHARDS              -> per-shard stats, one JSON line
//	STATS HIST                -> op + STM latency histograms, one JSON line
//	STATS HOT                 -> hottest keys by attributed conflicts, JSON
//	STATS WAL                 -> durability + changefeed stats, JSON
//	STATS REPL                -> replication role + progress, JSON
//	STATS RESET               -> OK                 (zero histograms/contention)
//	QUIT                      -> BYE (connection closes)
//
// With -admin, serve additionally listens on an HTTP admin plane:
// /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof/*
// (profiler) and /healthz. With -slowtxn, commands slower than the
// threshold are logged through log/slog with the verb, duration and
// remote address.
package main

import (
	"fmt"
	"os"
	"strings"

	"modtx/internal/stm"
)

func main() {
	args := os.Args[1:]
	cmd := "serve"
	if len(args) > 0 {
		cmd = args[0]
		args = args[1:]
	}
	switch cmd {
	case "serve":
		if err := runServe(args); err != nil {
			fmt.Fprintln(os.Stderr, "mtx-kv serve:", err)
			os.Exit(1)
		}
	case "replica":
		if err := runReplica(args); err != nil {
			fmt.Fprintln(os.Stderr, "mtx-kv replica:", err)
			os.Exit(1)
		}
	case "-h", "--help", "help":
		fmt.Println("usage: mtx-kv {serve|replica} [flags]  (see -h of each subcommand)")
	default:
		fmt.Fprintf(os.Stderr, "mtx-kv: unknown subcommand %q (want serve or replica)\n", cmd)
		os.Exit(2)
	}
}

// engineFlagHelp enumerates the registry for flag usage strings; the
// -engine value itself resolves through stm.ParseEngine.
func engineFlagHelp() string {
	return "STM engine: " + strings.Join(stm.EngineNames(), ", ")
}
