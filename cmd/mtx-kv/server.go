package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// defaultShards is serve's shard count unless -shards says otherwise,
// and a replica's always: the log routes records by key, so a replica
// need not match its primary.
const defaultShards = 64

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7700", "listen address")
	shards := fs.Int("shards", defaultShards, "shard count (rounded up to a power of two)")
	engineName := fs.String("engine", "lazy", engineFlagHelp())
	dataDir := fs.String("data", "",
		"durability directory: recover state from it on boot and log every commit; empty = in-memory only")
	durLevel := fs.String("durability", "fsync",
		"durability level with -data: fsync (group commit), batch (interval fsync), none (OS page cache)")
	replAddr := fs.String("replicate-addr", "",
		"listen address for WAL shipping to replicas (requires -data); empty disables")
	adminAddr := fs.String("admin", "",
		"admin plane listen address (/metrics, /debug/pprof, /debug/vars, /healthz); empty disables")
	slowTxn := fs.Duration("slowtxn", 0,
		"log commands slower than this threshold via slog (0 disables)")
	lim := limitFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := stm.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	opts := []kv.Option{kv.WithShards(*shards), kv.WithEngine(engine)}
	if *dataDir != "" {
		level, err := wal.ParseLevel(*durLevel)
		if err != nil {
			return err
		}
		opts = append(opts, kv.WithDurability(*dataDir, level))
	}
	store, err := kv.Open(opts...)
	if err != nil {
		return err
	}
	srv := &server{store: store, slow: *slowTxn, limits: lim()}
	if *dataDir != "" {
		ri := store.WALStats().Recover
		fmt.Printf("mtx-kv: recovered %s: %d snapshot records + %d log records, lsn %d\n",
			*dataDir, ri.SnapshotRecords, ri.Records, ri.LSN)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		store.Close()
		return err
	}
	if *replAddr != "" {
		st, err := cluster.NewStreamer(store)
		if err != nil {
			store.Close()
			return fmt.Errorf("-replicate-addr: %w (use -data)", err)
		}
		rl, err := net.Listen("tcp", *replAddr)
		if err != nil {
			store.Close()
			return fmt.Errorf("replication listen: %w", err)
		}
		srv.streamer = st
		fmt.Printf("mtx-kv: shipping WAL to replicas on %s\n", rl.Addr())
		go func() {
			if err := st.Serve(rl); err != nil {
				slog.Error("replication streamer exited", "err", err)
			}
		}()
	}
	if err := startAdmin(srv, *adminAddr); err != nil {
		store.Close()
		return err
	}
	fmt.Printf("mtx-kv: serving %s engine, %d shards on %s, durability %s\n",
		engine, srv.store.NumShards(), l.Addr(), store.WALStats().Level)
	// SIGINT/SIGTERM trigger the graceful path in serveUntil: stop
	// accepting, drain in-flight connections, then Close — which
	// flushes and fsyncs a durable store's log, so the next boot
	// replays no tail. A SIGKILL skips all of this by design — recovery
	// repairs whatever the crash left.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serveUntil(srv, l, sig)
}

// startAdmin mounts the admin plane when addr is non-empty.
func startAdmin(srv *server, addr string) error {
	if addr == "" {
		return nil
	}
	al, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	fmt.Printf("mtx-kv: admin plane on http://%s\n", al.Addr())
	go func() {
		if err := http.Serve(al, adminMuxFor(srv)); err != nil {
			slog.Error("admin plane exited", "err", err)
		}
	}()
	return nil
}

// drainTimeout bounds the graceful-shutdown drain: connections still
// busy after this long are force-closed so shutdown cannot hang on a
// parked subscriber or a dead client.
const drainTimeout = 5 * time.Second

// serveUntil accepts connections until stop delivers a signal, then
// shuts down gracefully: stop accepting, drain in-flight connections
// (force-closing stragglers after drainTimeout), stop the replication
// streamer, and flush + close the store's WAL. Factored out of
// runServe so tests can drive the whole shutdown path in-process.
func serveUntil(srv *server, l net.Listener, stop <-chan os.Signal) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			l.Close()
		case <-done:
		}
	}()
	err := srv.serve(l)
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	wait := srv.drainWait
	if wait == 0 {
		wait = drainTimeout
	}
	srv.drain(wait)
	if srv.streamer != nil {
		srv.streamer.Close()
	}
	if cerr := srv.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// server wraps a kv.Store with the line protocol. One goroutine per
// connection; the store itself is the only shared state.
type server struct {
	store     *kv.Store
	slow      time.Duration // log commands at least this slow; 0 disables
	readonly  bool          // replica role: reject mutating commands
	drainWait time.Duration // shutdown drain bound; 0 = drainTimeout
	limits                  // overload protection; see limits.go

	// Replication role, at most one non-nil: streamer on a primary
	// shipping its WAL, client+replica on a follower applying it.
	// STATS REPL and the admin plane report whichever is set.
	streamer *cluster.Streamer
	repl     *cluster.Client
	replica  *kv.Replica

	// Commands answered and the writes that carried their replies, over
	// all connections. A connection counts in plain locals and adds here
	// once per write; commands ÷ flushes is the pipelining it is seeing.
	wireCommands atomic.Uint64
	wireFlushes  atomic.Uint64

	// Connection tracking for the graceful drain.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
}

func (s *server) serve(l net.Listener) error {
	s.initLimits()
	// Accept backpressure: with -maxconns, a full house stops the accept
	// loop instead of spawning handlers — excess dials wait in the
	// kernel's listen backlog, costing the server nothing.
	var sem chan struct{}
	if s.maxConns > 0 {
		sem = make(chan struct{}, s.maxConns)
	}
	for {
		if sem != nil {
			sem <- struct{}{}
		}
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.track(conn)
		go func() {
			defer func() {
				s.untrack(conn)
				if sem != nil {
					<-sem
				}
			}()
			s.handleConn(conn)
		}()
	}
}

func (s *server) track(c net.Conn) {
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	s.connWG.Add(1)
}

func (s *server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.connWG.Done()
}

// drain waits for in-flight connection handlers to finish, up to
// timeout; stragglers (idle keep-alives, parked subscribers) have
// their connections force-closed, which unwinds their handlers.
func (s *server) drain(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}

const (
	// initialReadBuf is a connection's read buffer until a read fills it.
	initialReadBuf = 4096
	// flushBound is how much unwritten output a connection may hold: past
	// it the replies are written mid-batch, so a client that pipelines
	// without reading meets the write deadline, not an unbounded buffer.
	flushBound = 64 * 1024
)

// session is one connection: an asynchronous FIFO session in which the
// client may send requests without waiting and replies come back in
// request order. Each wakeup is one read, every complete line in the
// buffer executed with its reply appended to out, and one write.
type session struct {
	s    *server
	conn net.Conn

	in   []byte   // read buffer
	r, w int      // in[r:w] is received and not yet executed
	out  []byte   // replies not yet written
	f    [][]byte // the current command's operands, sub-slices of in
	keys []string // those that are keys, as the strings the store takes

	armed     time.Time // when the idle deadlines were last set
	streaming bool      // SUBSCRIBE mode: reads have no deadline
	cmds      uint64    // commands answered in out
}

func (s *server) handleConn(conn net.Conn) {
	defer conn.Close()
	maxReq := s.reqCap()
	c := &session{
		s:    s,
		conn: conn,
		in:   make([]byte, min(initialReadBuf, maxReq)),
		out:  make([]byte, 0, 256),
	}
	// A panic in one handler must cost one connection, not the process:
	// every other client keeps its session and the store its state.
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			slog.Error("connection handler panic", "panic", p,
				"remote", conn.RemoteAddr().String())
			// The commands before the one that panicked ran; out holds
			// their replies and nothing of the one that did not finish.
			c.flush()
		}
	}()
	last := false // nothing more will be read
	for {
		for {
			i := bytes.IndexByte(c.in[c.r:c.w], '\n')
			if i < 0 {
				break
			}
			line := c.in[c.r : c.r+i]
			c.r += i + 1
			if !c.command(line) {
				return
			}
		}
		tail := c.in[c.r:c.w] // a line still arriving
		if last {
			// What the peer left unterminated is its final line.
			if !c.command(tail) {
				return
			}
		} else if len(tail) >= maxReq {
			// There is no finding the next line boundary without
			// reading on without bound, so answer and hang up.
			c.out = append(c.out, "ERR request too large\n"...)
			last = true
		}
		// Everything executable has been: one write for the wakeup.
		if !c.flush() || last {
			return
		}
		if c.r > 0 {
			c.r, c.w = 0, copy(c.in, tail)
		}
		c.arm()
		n, err := conn.Read(c.in[c.w:])
		c.w += n
		last = err != nil
		if c.w == len(c.in) && len(c.in) < maxReq {
			// A read that fills the buffer earns a larger one, up to
			// -maxreq: a long line comes to fit, and a deep pipeline
			// comes to arrive in one read.
			grown := make([]byte, min(2*len(c.in), maxReq))
			copy(grown, c.in)
			c.in = grown
		}
	}
}

// arm sets the idle deadline, on reads and writes alike (SUBSCRIBE:
// writes only), if the one in force has aged a quarter of -idletimeout.
// It is set that quarter long, so a peer always has the full timeout
// from the last time arm was called, and at most a quarter more.
func (c *session) arm() {
	idle := c.s.idle
	if idle <= 0 {
		return
	}
	now := time.Now()
	if now.Sub(c.armed) < idle/4 {
		return
	}
	c.armed = now
	if deadline := now.Add(idle + idle/4); c.streaming {
		c.conn.SetWriteDeadline(deadline)
	} else {
		c.conn.SetDeadline(deadline)
	}
}

// flush writes the pending replies in one Write and reports whether the
// connection is still good. The write deadline bounds how long a
// stalled client (full socket buffer, dead peer) can pin this
// goroutine.
func (c *session) flush() bool {
	if len(c.out) == 0 {
		return true
	}
	if c.cmds > 0 {
		c.s.wireCommands.Add(c.cmds)
		c.s.wireFlushes.Add(1)
		c.cmds = 0
	}
	c.arm()
	_, err := c.conn.Write(c.out)
	if cap(c.out) > 2*flushBound {
		// Don't let one huge MGET pin its high-water mark for the
		// rest of a long-lived connection.
		c.out = make([]byte, 0, 256)
	}
	c.out = c.out[:0]
	return err == nil
}

// command executes one request line and leaves its reply in out. It
// returns false when the connection is over: after QUIT, at the end of
// a SUBSCRIBE stream, or when a write failed.
func (c *session) command(line []byte) bool {
	// Trim only the CR of CRLF clients: SET values keep the rest of
	// their trailing bytes.
	line = bytes.TrimRight(line, "\r")
	cmd, args := nextField(line)
	if len(cmd) == 0 {
		return true
	}
	s := c.s
	v := parseVerb(cmd)
	switch v {
	case verbSubscribe:
		// SUBSCRIBE flips the connection into streaming mode for the
		// rest of its life; it never returns to command dispatch.
		c.subscribe(args)
		return false
	case verbBGet, verbWatch:
		// These park: no reply already earned waits behind them.
		if !c.flush() {
			return false
		}
	}
	var start time.Time
	if s.slow > 0 {
		start = time.Now()
	}
	var quit bool
	c.out, quit = c.execAdmitted(c.out, v, cmd, args)
	c.out = append(c.out, '\n')
	c.cmds++
	if s.slow > 0 {
		if elapsed := time.Since(start); elapsed >= s.slow {
			// Log only the verb: values are user data and BGET/WATCH
			// park by design, which is exactly what this surfaces.
			slog.Warn("slow command", "cmd", strings.ToUpper(string(cmd)),
				"elapsed", elapsed, "remote", c.conn.RemoteAddr().String())
		}
	}
	if quit || len(c.out) >= flushBound {
		return c.flush() && !quit
	}
	return true
}

// subscribe serves SUBSCRIBE [prefix]: acknowledge with
// "OK subscribed", then stream one "EVENT seq op key [value]" line per
// committed write under the prefix, in commit order, until the client
// sends any line or disconnects. seq is the store's LSN (shared by the
// ops of one transaction); op is set, cset or del; set carries the
// value bytes (no newlines, spaces allowed), cset the counter's new
// absolute value.
//
// Delivery is buffered and non-blocking on the commit path: a client
// that reads slower than the store commits loses events, and each loss
// is reported in-stream as a cumulative "DROPPED n" line, so consumers
// can tell a gap from a quiet store.
func (c *session) subscribe(args []byte) {
	c.cmds++
	f := appendFields(c.f[:0], args)
	if len(f) > 1 {
		c.out = append(c.out, "ERR usage: SUBSCRIBE [prefix]\n"...)
		c.flush()
		return
	}
	prefix := ""
	if len(f) == 1 {
		prefix = string(f[0])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := c.s.store.Subscribe(ctx, prefix)
	defer sub.Close()
	// A quiet subscriber is normal, so the read deadline comes off.
	// Subscribers may read slowly but not stall forever: a full socket
	// buffer past the write deadline ends the stream.
	c.streaming, c.armed = true, time.Time{}
	c.conn.SetReadDeadline(time.Time{})
	// The registration must be visible before the ack: a client that
	// reads "OK" and then triggers a write on another connection is
	// guaranteed to see its event.
	c.out = append(c.out, "OK subscribed\n"...)
	if !c.flush() {
		return
	}
	// Any further line — one received behind the SUBSCRIBE counts — or
	// EOF when the client goes away ends the stream; parking on the read
	// costs nothing while the client is quietly reading. The read buffer
	// is this goroutine's from here on.
	go func() {
		defer cancel()
		for rest := c.in[c.r:c.w]; bytes.IndexByte(rest, '\n') < 0; {
			n, err := c.conn.Read(c.in)
			if err != nil {
				return
			}
			rest = c.in[:n]
		}
	}()
	events := sub.Events()
	var reported uint64
	for ev := range events {
		// One write for this event and every one already queued behind it.
		for more := true; more; {
			c.out = appendEvent(c.out, ev)
			c.out = append(c.out, '\n')
			if d := sub.Dropped(); d > reported {
				reported = d
				c.out = append(c.out, "DROPPED "...)
				c.out = strconv.AppendUint(c.out, d, 10)
				c.out = append(c.out, '\n')
			}
			more = false
			if len(c.out) < flushBound {
				select {
				case ev, more = <-events:
				default:
				}
			}
		}
		if !c.flush() {
			return
		}
	}
}

// appendEvent formats one changefeed event as a protocol line (without
// the trailing newline).
func appendEvent(b []byte, ev kv.Event) []byte {
	b = append(b, "EVENT "...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, ' ')
	b = append(b, ev.Kind.String()...)
	b = append(b, ' ')
	b = append(b, ev.Key...)
	switch ev.Kind {
	case wal.KindSet:
		b = append(b, ' ')
		b = append(b, ev.Val...)
	case wal.KindCounterAdd, wal.KindCounterSet:
		b = append(b, ' ')
		b = strconv.AppendInt(b, ev.N, 10)
	}
	return b
}

// maxBlockTimeout caps BGET/WATCH waits: it bounds how long a dead
// connection can pin a parked goroutine (the wait context is not tied
// to the connection's lifetime) and keeps the millisecond→Duration
// conversion far from int64 overflow, which would turn a huge requested
// timeout into an instantly-expired context.
const maxBlockTimeout = 10 * time.Minute

// parseBlockTimeout parses a BGET/WATCH timeoutMs operand: a positive
// integer, clamped to the server's block cap (maxBlockTimeout unless a
// test or fuzz harness shrinks it).
func (s *server) parseBlockTimeout(arg string) (time.Duration, bool) {
	ms, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	cap := s.blockTimeoutCap()
	if ms > int64(cap/time.Millisecond) {
		return cap, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// appendErr appends "ERR <context><err>" to the reply buffer.
func appendErr(reply []byte, context string, err error) []byte {
	reply = append(reply, "ERR "...)
	reply = append(reply, context...)
	return append(reply, err.Error()...)
}

// exec runs one protocol command — cmd is its verb as typed, v the verb
// resolved, args the rest of the line — appending the response (which
// may span several lines, e.g. MGET) to reply and returning the
// extended buffer. Values are arbitrary byte strings without newlines:
// SET takes everything after the key as the value, so spaces round-trip;
// the token-based multi-key commands (MSET) carry values without spaces.
// Operands are read where they lie in the read buffer; a key becomes a
// string, with bytes of its own, only as the store is called.
func (c *session) exec(reply []byte, v verb, cmd, args []byte) (resp []byte, quit bool) {
	s := c.s
	if s.readonly {
		// A replica serves reads only: writing through its store would
		// fork it from the primary's history (replication applies the
		// primary's records by absolute sequence, not by merging).
		switch v {
		case verbSet, verbDel, verbAdd, verbMSet, verbTxn:
			return append(reply, "ERR read-only replica"...), false
		}
	}
	if v == verbSet {
		// SET key value — the value is everything after the key (leading
		// whitespace trimmed, trailing bytes preserved), so it may contain
		// spaces but not newlines, and it is not split into tokens at all.
		// The store copies it out of the read buffer.
		key, val := nextField(args)
		if val = trimLeftSpace(val); len(val) == 0 {
			return append(reply, "ERR usage: SET key value"...), false
		}
		if err := s.store.Set(string(key), val); err != nil {
			return appendErr(reply, "", err), false
		}
		return append(reply, "OK"...), false
	}
	c.f = appendFields(c.f[:0], args)
	f := c.f
	switch v {
	case verbPing:
		return append(reply, "PONG"...), false

	case verbGet, verbFGet:
		if len(f) != 1 {
			return append(reply, "ERR usage: GET key"...), false
		}
		var val []byte
		var ok bool
		if v == verbFGet {
			val, ok = s.store.FastGet(string(f[0]))
		} else {
			var err error
			val, ok, err = s.store.Get(string(f[0]))
			if err != nil {
				return appendErr(reply, "", err), false
			}
		}
		if !ok {
			return append(reply, "NIL"...), false
		}
		reply = append(reply, "VALUE "...)
		return append(reply, val...), false

	case verbBGet:
		// BGET key timeoutMs — blocking GET: parks server-side (on this
		// connection only) until the key exists, waking on the commit
		// that creates it; TIMEOUT after the deadline. The wait is
		// event-driven — a parked BGET burns no server CPU.
		if len(f) != 2 {
			return append(reply, "ERR usage: BGET key timeoutMs"...), false
		}
		d, ok := s.parseBlockTimeout(string(f[1]))
		if !ok {
			return append(reply, "ERR timeoutMs must be a positive integer"...), false
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		val, err := s.store.WaitGet(ctx, string(f[0]))
		cancel()
		switch {
		case errors.Is(err, stm.ErrCanceled):
			return append(reply, "TIMEOUT"...), false
		case err != nil:
			return appendErr(reply, "", err), false
		}
		reply = append(reply, "VALUE "...)
		return append(reply, val...), false

	case verbWatch:
		// WATCH key [timeoutMs] — block until the key's value (or
		// existence) changes from its state at command time, then reply
		// with the new state: VALUE v, NIL (deleted), or TIMEOUT. The
		// default timeout bounds how long a dead connection can keep its
		// goroutine parked.
		if len(f) != 1 && len(f) != 2 {
			return append(reply, "ERR usage: WATCH key [timeoutMs]"...), false
		}
		d := time.Minute
		if cap := s.blockTimeoutCap(); d > cap {
			d = cap
		}
		if len(f) == 2 {
			var okArg bool
			d, okArg = s.parseBlockTimeout(string(f[1]))
			if !okArg {
				return append(reply, "ERR timeoutMs must be a positive integer"...), false
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		val, ok, err := s.store.Watch(ctx, string(f[0]))
		cancel()
		switch {
		case errors.Is(err, stm.ErrCanceled):
			return append(reply, "TIMEOUT"...), false
		case err != nil:
			return appendErr(reply, "", err), false
		case !ok:
			return append(reply, "NIL"...), false
		}
		reply = append(reply, "VALUE "...)
		return append(reply, val...), false

	case verbDel:
		if len(f) < 1 {
			return append(reply, "ERR usage: DEL key..."...), false
		}
		n := 0
		for _, k := range f {
			ok, err := s.store.Delete(string(k))
			if err != nil {
				return appendErr(reply, "", err), false
			}
			if ok {
				n++
			}
		}
		reply = append(reply, "VALUE "...)
		return strconv.AppendInt(reply, int64(n), 10), false

	case verbAdd:
		if len(f) != 2 {
			return append(reply, "ERR usage: ADD key delta"...), false
		}
		d, err := strconv.ParseInt(string(f[1]), 10, 64)
		if err != nil {
			return appendErr(reply, "delta: ", err), false
		}
		n, err := s.store.CounterAdd(string(f[0]), d)
		if err != nil {
			return appendErr(reply, "", err), false
		}
		reply = append(reply, "VALUE "...)
		return strconv.AppendInt(reply, n, 10), false

	case verbMGet:
		if len(f) < 1 {
			return append(reply, "ERR usage: MGET key..."...), false
		}
		keys := c.keyStrings(f, 1)
		got, err := s.store.MGet(keys...)
		if err != nil {
			return appendErr(reply, "", err), false
		}
		// Multi-line reply: a count header, then one VALUE/NIL line per
		// key — unambiguous even when values contain spaces.
		reply = append(reply, "VALUES "...)
		reply = strconv.AppendInt(reply, int64(len(keys)), 10)
		for _, k := range keys {
			if val, ok := got[k]; ok {
				reply = append(reply, "\nVALUE "...)
				reply = append(reply, val...)
			} else {
				reply = append(reply, "\nNIL"...)
			}
		}
		return reply, false

	case verbMSet:
		if len(f) < 2 || len(f)%2 != 0 {
			return append(reply, "ERR usage: MSET key value [key value ...] (token values)"...), false
		}
		vals := make(map[string][]byte, len(f)/2)
		for i := 0; i < len(f); i += 2 {
			vals[string(f[i])] = f[i+1] // copied by the store, like SET's
		}
		if err := s.store.MSet(vals); err != nil {
			return appendErr(reply, "", err), false
		}
		return append(reply, "OK"...), false

	case verbTxn:
		if len(f) < 1 {
			return append(reply, "ERR usage: TXN {ADD key delta [key delta ...] | DEL key...}"...), false
		}
		switch parseVerb(f[0]) {
		case verbAdd:
			rest := f[1:]
			if len(rest) == 0 || len(rest)%2 != 0 {
				return append(reply, "ERR usage: TXN ADD key delta [key delta ...]"...), false
			}
			deltas := make([]int64, len(rest)/2)
			for i := range deltas {
				d, err := strconv.ParseInt(string(rest[2*i+1]), 10, 64)
				if err != nil {
					return appendErr(reply, "delta for "+string(rest[2*i])+": ", err), false
				}
				deltas[i] = d
			}
			keys := c.keyStrings(rest, 2)
			news := make([]int64, len(keys))
			err := s.store.Update(keys, func(t *kv.Txn) error {
				for i, k := range keys {
					news[i] = t.Add(k, deltas[i])
				}
				return nil
			})
			if err != nil {
				return appendErr(reply, "", err), false
			}
			reply = append(reply, "VALUES"...)
			for _, n := range news {
				reply = append(reply, ' ')
				reply = strconv.AppendInt(reply, n, 10)
			}
			return reply, false

		case verbDel:
			if len(f) < 2 {
				return append(reply, "ERR usage: TXN DEL key..."...), false
			}
			keys := c.keyStrings(f[1:], 1)
			removed := make([]bool, len(keys))
			err := s.store.Update(keys, func(t *kv.Txn) error {
				for i, k := range keys {
					removed[i] = t.Delete(k)
				}
				return nil
			})
			if err != nil {
				return appendErr(reply, "", err), false
			}
			reply = append(reply, "VALUES"...)
			for _, ok := range removed {
				if ok {
					reply = append(reply, " 1"...)
				} else {
					reply = append(reply, " 0"...)
				}
			}
			return reply, false

		default:
			reply = append(reply, "ERR unknown TXN op "...)
			reply = append(reply, f[0]...)
			return append(reply, " (want ADD or DEL)"...), false
		}

	case verbStats:
		// STATS            -> the human-readable aggregate counters
		// STATS SHARDS     -> per-shard stats, one JSON line
		// STATS HIST       -> op + STM latency histograms, one JSON line
		// STATS HOT        -> hottest keys by attributed conflicts, JSON
		// STATS WAL        -> durability + changefeed stats, one JSON line
		// STATS REPL       -> replication role + progress, one JSON line
		// STATS RESET      -> zero histograms and contention tables
		if len(f) == 0 {
			// The wire totals are folded in at each flush, so the batch
			// this STATS rides in is not yet in them.
			reply = append(reply, "STATS "+s.store.Stats().String()+" wire: commands="...)
			reply = strconv.AppendUint(reply, s.wireCommands.Load(), 10)
			reply = append(reply, " flushes="...)
			return strconv.AppendUint(reply, s.wireFlushes.Load(), 10), false
		}
		switch strings.ToUpper(string(f[0])) {
		case "SHARDS":
			return appendStatsJSON(reply, s.store.ShardStats()), false
		case "HIST":
			return appendStatsJSON(reply, histReportFor(s.store)), false
		case "HOT":
			return appendStatsJSON(reply, hotKeysFor(s.store)), false
		case "WAL":
			return appendStatsJSON(reply, s.store.WALStats()), false
		case "REPL":
			return appendStatsJSON(reply, s.replStats()), false
		case "RESET":
			s.store.ResetMetrics()
			return append(reply, "OK"...), false
		default:
			reply = append(reply, "ERR unknown STATS sub "...)
			reply = append(reply, f[0]...)
			return append(reply, " (want SHARDS, HIST, HOT, WAL, REPL or RESET)"...), false
		}

	case verbQuit:
		return append(reply, "BYE"...), true
	}
	reply = append(reply, "ERR unknown command "...)
	return append(reply, cmd...), false
}

// keyStrings returns every step-th token of f as a string that owns its
// bytes — the store keeps the key of an entry it creates — in a slice
// the connection reuses.
func (c *session) keyStrings(f [][]byte, step int) []string {
	c.keys = c.keys[:0]
	for i := 0; i < len(f); i += step {
		c.keys = append(c.keys, string(f[i]))
	}
	return c.keys
}
