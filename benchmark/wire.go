package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"modtx/internal/kv"
	"modtx/internal/obs"
)

// Wire workloads: closed-loop clients speaking mtx-kv's line protocol to
// a spawned `mtx-kv serve`. The two workloads differ in one thing only,
// how many requests a connection keeps in flight: depth 1 is the simple
// client that writes a line and waits for its reply; depth 16 writes 16
// lines in one go and then reads the 16 replies.

type wireSpec struct {
	name   string
	setups int // set-up runs this often in an untraced run and setup_s is the median
	nkeys  int
	naccts int
	nhits  int
	zipfS  float64
	conns  int
	depth  int
	mgetN  int
	mix    []mixEntry
}

func wireSpecs(scale float64) []wireSpec {
	n := func(full, floor int) int { return max(floor, int(float64(full)*scale)) }
	mix := []mixEntry{{opGet, 50}, {opFastGet, 20}, {opSet, 15}, {opCounterAdd, 5}, {opMGet, 5}, {opTransfer, 5}}
	base := wireSpec{nkeys: n(65_536, 1024), naccts: n(1024, 64), nhits: n(1024, 64),
		zipfS: 1.1, conns: 2, mgetN: 4, mix: mix, setups: 1}
	ping, pipe := base, base
	ping.name, ping.depth = "wire-pingpong", 1
	pipe.name, pipe.depth = "wire-pipelined", 16
	return []wireSpec{ping, pipe}
}

// wireConn is one protocol connection with its byte counts.
type wireConn struct {
	c        net.Conn
	r        *bufio.Reader
	out      []byte
	sent     int64
	received int64
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// ioTimeout bounds every exchange with the server: a hung server fails
// the run instead of hanging it.
const ioTimeout = 30 * time.Second

// flush writes the queued request bytes in one write.
func (w *wireConn) flush() error {
	w.c.SetDeadline(time.Now().Add(ioTimeout))
	n, err := w.c.Write(w.out)
	w.sent += int64(n)
	w.out = w.out[:0]
	return err
}

// readLine returns the next reply line without its newline; the slice
// is valid until the next read.
func (w *wireConn) readLine() ([]byte, error) {
	line, err := w.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	w.received += int64(len(line))
	return line[:len(line)-1], nil
}

// roundTrip sends one command and returns its single-line reply.
func (w *wireConn) roundTrip(cmd string) ([]byte, error) {
	w.out = append(append(w.out[:0], cmd...), '\n')
	if err := w.flush(); err != nil {
		return nil, err
	}
	return w.readLine()
}

// readServerStats reads the server's public stats over the wire.
func readServerStats(ctl *wireConn) (layerStats, error) {
	ls := layerStats{}
	var shards []kv.ShardStat
	var hist struct {
		Ops map[string]obs.Snapshot `json:"ops"`
		Stm kv.StmLatencies         `json:"stm"`
	}
	for _, q := range []struct {
		cmd string
		dst any
	}{{"STATS SHARDS", &shards}, {"STATS HIST", &hist}, {"STATS WAL", &ls.wal}} {
		line, err := ctl.roundTrip(q.cmd)
		if err != nil {
			return ls, fmt.Errorf("%s: %w", q.cmd, err)
		}
		if err := json.Unmarshal(line, q.dst); err != nil {
			return ls, fmt.Errorf("%s: %w (%.60q)", q.cmd, err, line)
		}
	}
	ls.ops, ls.stm = hist.Ops, hist.Stm
	for _, sh := range shards {
		ls.kv.FastGets += sh.FastGets
		ls.kv.Commits += sh.Stm.Commits
		ls.kv.Conflicts += sh.Stm.Conflicts
		ls.kv.UserAborts += sh.Stm.UserAborts
		ls.kv.MultiCommits += sh.Stm.MultiCommits
		ls.kv.ReadOnlyCommits += sh.Stm.ReadOnlyCommits
		ls.kv.Waits += sh.Stm.Waits
		ls.kv.Wakeups += sh.Stm.Wakeups
		ls.kv.SpuriousWakeups += sh.Stm.SpuriousWakeups
	}
	return ls, nil
}

// wireClient is one connection's closed loop.
type wireClient struct {
	spec *wireSpec
	ks   *keyspace
	ring *ring
	pos  int
	conn *wireConn

	batch     []op
	acct, hit []int64
	ops       int64
	failed    int64
	errs      int64 // ERR replies
	shed      int64 // of which "ERR overloaded"
	err       error // the connection broke: the run cannot go on

	rec *recorder
	tr  *tracer
	req uint32
}

var wireVerbSpan = [numOpCodes]uint16{
	opGet: spanServerGet, opFastGet: spanServerFGet, opSet: spanServerSet,
	opCounterAdd: spanServerAdd, opMGet: spanServerMGet, opTransfer: spanServerTxn,
}

// appendRequest appends o's protocol line.
func (c *wireClient) appendRequest(dst []byte, o op) []byte {
	ks := c.ks
	switch o.code {
	case opGet:
		dst = append(append(dst, "GET "...), ks.keys[o.a]...)
	case opFastGet:
		dst = append(append(dst, "FGET "...), ks.keys[o.a]...)
	case opSet:
		dst = append(append(append(dst, "SET "...), ks.keys[o.a]...), ' ')
		dst = appendTextValue(dst, ks.sums[o.a], uint64(c.pos))
	case opCounterAdd:
		dst = append(append(append(dst, "ADD "...), ks.hits[o.a]...), ' ')
		dst = strconv.AppendInt(dst, o.amount(), 10)
	case opMGet:
		dst = append(dst, "MGET"...)
		for _, a := range c.ring.multi[int(o.a)*c.spec.mgetN:][:c.spec.mgetN] {
			dst = append(append(dst, ' '), ks.keys[a]...)
		}
	case opTransfer:
		dst = append(append(append(dst, "TXN ADD "...), ks.accts[o.a]...), " -"...)
		dst = strconv.AppendInt(dst, o.amount(), 10)
		dst = append(append(append(dst, ' '), ks.accts[o.b]...), ' ')
		dst = strconv.AppendInt(dst, o.amount(), 10)
	default:
		panic(fmt.Sprintf("op code %d in a wire ring", o.code))
	}
	return append(dst, '\n')
}

var (
	prefixErr    = []byte("ERR")
	prefixValue  = []byte("VALUE ")
	prefixValues = []byte("VALUES ")
	replyOK      = []byte("OK")
)

// readReply reads o's reply and checks it. ok is false for a refused or
// wrong reply; err is set only when the connection itself failed.
func (c *wireClient) readReply(o op) (ok bool, err error) {
	line, err := c.conn.readLine()
	if err != nil {
		return false, err
	}
	if bytes.HasPrefix(line, prefixErr) {
		c.errs++
		if bytes.Contains(line, []byte("overloaded")) {
			c.shed++
		}
		return false, nil
	}
	ks := c.ks
	switch o.code {
	case opGet, opFastGet:
		return bytes.HasPrefix(line, prefixValue) && textValueSum(line[len(prefixValue):]) == ks.sums[o.a], nil
	case opSet:
		return bytes.Equal(line, replyOK), nil
	case opCounterAdd:
		if !bytes.HasPrefix(line, prefixValue) {
			return false, nil
		}
		c.hit[o.a] += o.amount()
		return true, nil
	case opMGet:
		if !bytes.HasPrefix(line, prefixValues) {
			return false, nil
		}
		ok = true
		for _, a := range c.ring.multi[int(o.a)*c.spec.mgetN:][:c.spec.mgetN] {
			if line, err = c.conn.readLine(); err != nil {
				return false, err
			}
			if !bytes.HasPrefix(line, prefixValue) || textValueSum(line[len(prefixValue):]) != ks.sums[a] {
				ok = false
			}
		}
		return ok, nil
	case opTransfer:
		if !bytes.HasPrefix(line, prefixValues) {
			return false, nil
		}
		c.acct[o.a] -= o.amount()
		c.acct[o.b] += o.amount()
		return true, nil
	}
	return false, nil
}

// run is the closed loop at the spec's depth: queue depth requests,
// write them in one go, read the replies in order. An op's latency runs
// from that write to its own reply, and every op is timed. Traced, each
// batch leaves a request span with one child per op, named by verb.
func (c *wireClient) run(start time.Time, window time.Duration) {
	mask := len(c.ring.ops) - 1
	for {
		var root int32 = -1
		if c.tr != nil {
			c.req++
			root = c.tr.begin(spanGenOp, c.tr.now(), c.req)
		}
		c.batch = c.batch[:0]
		for i := 0; i < c.spec.depth; i++ {
			o := c.ring.ops[c.pos&mask]
			c.pos++
			c.batch = append(c.batch, o)
			c.conn.out = c.appendRequest(c.conn.out, o)
		}
		sent := time.Now()
		if c.err = c.conn.flush(); c.err != nil {
			return
		}
		var at time.Duration
		for _, o := range c.batch {
			ok, err := c.readReply(o)
			if err != nil {
				c.err = err
				return
			}
			now := time.Now()
			at = now.Sub(start)
			c.ops++
			if !ok {
				c.failed++
			}
			c.rec.add(at, 1)
			c.rec.sample(at, opClass[o.code], int64(now.Sub(sent)))
			if c.tr != nil {
				c.tr.add(wireVerbSpan[o.code], int64(sent.Sub(c.tr.epoch)), int64(now.Sub(c.tr.epoch)), root, c.req)
			}
		}
		if c.tr != nil {
			c.tr.finish(root, c.tr.now())
		}
		if at >= window {
			return
		}
	}
}

// wireBench is a started, preloaded server with its connections.
type wireBench struct {
	srv    *serverProc
	ctl    *wireConn
	conns  []*wireConn
	closed bool
}

func (b *wireBench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	for _, c := range append(b.conns, b.ctl) {
		if c != nil {
			c.c.Close()
		}
	}
	return b.srv.stop()
}

// pipeline sends n commands built by build over conn, depth at a time,
// and hands each reply line to check.
func pipeline(conn *wireConn, n, depth int, build func(dst []byte, i int) []byte, check func(i int, line []byte) error) error {
	for lo := 0; lo < n; lo += depth {
		hi := min(lo+depth, n)
		for i := lo; i < hi; i++ {
			conn.out = append(build(conn.out, i), '\n')
		}
		if err := conn.flush(); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			line, err := conn.readLine()
			if err != nil {
				return err
			}
			if err := check(i, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// startWire is the wire workloads' set-up: start the server, connect,
// write every key its version-0 value and create the counters.
func startWire(bin string, cpu int, spec *wireSpec, ks *keyspace) (b *wireBench, loadDur time.Duration, err error) {
	srv, err := startServer(bin, cpu)
	if err != nil {
		return nil, 0, err
	}
	b = &wireBench{srv: srv}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.ctl, err = dialWire(srv.addr); err != nil {
		return nil, 0, err
	}
	for i := 0; i < spec.conns; i++ {
		c, err := dialWire(srv.addr)
		if err != nil {
			return nil, 0, err
		}
		b.conns = append(b.conns, c)
	}
	t0 := time.Now()
	errs := make([]error, len(b.conns))
	var wg sync.WaitGroup
	for g, conn := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Connection g loads every len(conns)-th key.
			n := (len(ks.keys) - g + len(b.conns) - 1) / len(b.conns)
			errs[g] = pipeline(conn, n, 128, func(dst []byte, i int) []byte {
				k := g + i*len(b.conns)
				dst = append(append(append(dst, "SET "...), ks.keys[k]...), ' ')
				return appendTextValue(dst, ks.sums[k], 0)
			}, func(i int, line []byte) error {
				if !bytes.Equal(line, replyOK) {
					return fmt.Errorf("preload SET: %q", line)
				}
				return nil
			})
		}()
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	loadDur = time.Since(t0)
	counters := append(append([]string(nil), ks.accts...), ks.hits...)
	err = pipeline(b.ctl, len(counters), 128, func(dst []byte, i int) []byte {
		return append(append(append(dst, "ADD "...), counters[i]...), " 0"...)
	}, func(i int, line []byte) error {
		if !bytes.HasPrefix(line, prefixValue) {
			return fmt.Errorf("preload ADD: %q", line)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return b, loadDur, nil
}

// runWireWindow runs every connection's loop for one window.
func runWireWindow(clients []*wireClient, window time.Duration, traced bool) (windowRun, error) {
	slices, slice := windowSlices(window)
	run := windowRun{slices: slices}
	for _, c := range clients {
		c.rec = newRecorder(slice, slices, int(200_000*window.Seconds()))
		c.ops, c.failed, c.errs, c.shed, c.tr = 0, 0, 0, 0, nil
		run.recs = append(run.recs, c.rec)
	}
	start := time.Now()
	if traced {
		for _, c := range clients {
			c.tr = newTracer(start, 1<<20)
			run.tracers = append(run.tracers, c.tr)
		}
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(start, window)
		}()
	}
	wg.Wait()
	for _, c := range clients {
		if c.err != nil {
			return run, fmt.Errorf("connection to the server failed: %w", c.err)
		}
		run.ops += c.ops
		run.failed += c.failed
		c.tr = nil
	}
	return run, nil
}

// serverUsage is the server process as /proc shows it at one instant.
type serverUsage struct {
	cpu        time.Duration
	syscalls   int64
	syscallsOK bool
}

func readServerUsage(pid int) (serverUsage, error) {
	cpu, err := procCPU(pid)
	if err != nil {
		return serverUsage{}, err
	}
	u := serverUsage{cpu: cpu}
	u.syscalls, u.syscallsOK = procSyscalls(pid)
	return u, nil
}

func runWire(spec wireSpec, cfg runConfig) (*result, error) {
	res := newResult(spec.name, cfg.traced)
	probeTr, err := runProbes(res, cfg)
	if err != nil {
		return nil, err
	}
	// Not part of set-up: a user starts a binary they already have.
	bin, err := buildServer(cfg.root)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(spec.nkeys, spec.naccts, spec.nhits)
	rings := make([]*ring, spec.conns)
	for i := range rings {
		rings[i] = newRing(cfg.seed, i, ks, ringSpec{mix: spec.mix, zipfS: spec.zipfS,
			nkeys: spec.nkeys, mgetN: spec.mgetN, length: cfg.ringLen()})
	}

	// From here on the generator has one processor and the server another
	// (affinity.go says why).
	serverCPU, restore, err := splitProcessors()
	if err != nil {
		return nil, err
	}
	defer restore()

	var bench *wireBench
	var loadDur time.Duration
	setups, err := cfg.timeSetups(spec.setups, func() (err error) {
		bench, loadDur, err = startWire(bin, serverCPU, &spec, ks)
		return err
	}, func() error { return bench.close() })
	if err != nil {
		return nil, err
	}
	defer bench.close()
	pid := bench.srv.pid()

	clients := make([]*wireClient, spec.conns)
	for i := range clients {
		clients[i] = &wireClient{spec: &spec, ks: ks, ring: rings[i], conn: bench.conns[i],
			acct: make([]int64, len(ks.accts)), hit: make([]int64, len(ks.hits))}
	}
	window := cfg.measured()
	run, err := runWireWindow(clients, window, false)
	if err != nil {
		return nil, err
	}
	res.attempted += run.ops
	res.failed += run.failed
	if !cfg.traced {
		res.set("setup_s", median(setups))
		res.latencyMetrics(run)
	} else {
		untracedRate := run.rate()
		res.tailMetrics(run)
		connSetup, err := connSetupMicros(bench.srv.addr)
		if err != nil {
			return nil, err
		}
		res.set("server.conn_setup_us", connSetup)

		before, err := readServerStats(bench.ctl)
		if err != nil {
			return nil, err
		}
		use0, err := readServerUsage(pid)
		if err != nil {
			return nil, err
		}
		var sent0, recv0 int64
		for _, c := range clients {
			sent0 += c.conn.sent
			recv0 += c.conn.received
		}
		if run, err = runWireWindow(clients, window, true); err != nil {
			return nil, err
		}
		use1, err := readServerUsage(pid)
		if err != nil {
			return nil, err
		}
		after, err := readServerStats(bench.ctl)
		if err != nil {
			return nil, err
		}
		res.attempted += run.ops
		res.failed += run.failed
		res.setLayerCounters(before, after)
		ops := float64(run.ops)
		var sent1, recv1, errs, shed int64
		for _, c := range clients {
			sent1 += c.conn.sent
			recv1 += c.conn.received
			errs += c.errs
			shed += c.shed
		}
		res.set("server.bytes_in_per_op", ratio(float64(sent1-sent0), ops))
		res.set("server.bytes_out_per_op", ratio(float64(recv1-recv0), ops))
		res.set("server.cpu_us_per_op", ratio(float64(use1.cpu-use0.cpu)/1e3, ops))
		if use0.syscallsOK && use1.syscallsOK {
			res.set("server.syscalls_per_op", ratio(float64(use1.syscalls-use0.syscalls), ops))
		}
		res.set("server.errors", float64(errs))
		res.set("server.shed", float64(shed))

		p50us := func(name uint16) float64 { return float64(quantile(spanDurations(run.tracers, name), 0.5)) / 1e3 }
		res.set("server.get_p50_us", p50us(spanServerGet))
		res.set("server.set_p50_us", p50us(spanServerSet))
		res.set("server.mget4_p50_us", p50us(spanServerMGet))
		res.set("server.txn2_p50_us", p50us(spanServerTxn))
		// What the server adds around the store: the median wire op minus
		// the store's own median op, as its histograms report it.
		wireP50 := float64(quantile(windowSamples(run.recs, run.slices, classRead, classWrite), 0.5)) / 1e3
		kvP50 := kvOpP50(before, after, "get", "set", "counter_add", "update", "view") / 1e3
		res.set("server.rtt_self_us", wireP50-kvP50)
		// The kv layer's own view of its ops, log-bucketed.
		res.set("kv.get_p50_ns", kvOpP50(before, after, "get"))
		res.set("kv.set_p50_ns", kvOpP50(before, after, "set"))
		res.set("kv.counteradd_p50_ns", kvOpP50(before, after, "counter_add"))
		res.set("kv.update2_p50_ns", kvOpP50(before, after, "update"))
		res.set("kv.load_keys_per_s", ratio(float64(len(ks.keys)), loadDur.Seconds()))
		res.traceMetrics(run.tracers, run.rate(), untracedRate)
		if err := cfg.writeTrace(spec.name, append(run.tracers, probeTr)); err != nil {
			return nil, err
		}
	}
	peak, rss, err := procMem(pid)
	if err != nil {
		return nil, err
	}

	if err := checkWire(res, bench.ctl, ks, clients); err != nil {
		return nil, err
	}
	if cfg.traced {
		res.set("server.rss_mb", rss)
	}
	res.finish(peak)
	return res, bench.close()
}

// connSetupMicros is the median time, over 20 tries, to connect to the
// server and get a PING answered.
func connSetupMicros(addr string) (float64, error) {
	var dials []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		c, err := dialWire(addr)
		if err != nil {
			return 0, err
		}
		line, err := c.roundTrip("PING")
		d := time.Since(t0)
		c.c.Close()
		if err != nil || string(line) != "PONG" {
			return 0, fmt.Errorf("PING on a fresh connection: %q, %v", line, err)
		}
		dials = append(dials, float64(d)/1e3)
	}
	return median(dials), nil
}

// checkWire reads the whole keyspace back over the wire: every byte key
// under its own checksum, every counter at the sum of the deltas the
// clients had acknowledged, the transfer accounts summing to zero.
func checkWire(res *result, ctl *wireConn, ks *keyspace, clients []*wireClient) error {
	const chunk = 64
	mget := func(keys []string, each func(i int, line []byte)) error {
		for lo := 0; lo < len(keys); lo += chunk {
			hi := min(lo+chunk, len(keys))
			ctl.out = append(ctl.out[:0], "MGET"...)
			for _, k := range keys[lo:hi] {
				ctl.out = append(append(ctl.out, ' '), k...)
			}
			ctl.out = append(ctl.out, '\n')
			if err := ctl.flush(); err != nil {
				return err
			}
			head, err := ctl.readLine()
			if err != nil {
				return err
			}
			if !bytes.HasPrefix(head, prefixValues) {
				return fmt.Errorf("final MGET: %q", head)
			}
			for i := lo; i < hi; i++ {
				line, err := ctl.readLine()
				if err != nil {
					return err
				}
				each(i, line)
			}
		}
		return nil
	}
	var bad int64
	if err := mget(ks.keys, func(i int, line []byte) {
		if !bytes.HasPrefix(line, prefixValue) || textValueSum(line[len(prefixValue):]) != ks.sums[i] {
			bad++
		}
	}); err != nil {
		return err
	}
	res.checkN(int64(len(ks.keys)), bad, "%d of %d keys missing or holding another key's value", bad, len(ks.keys))

	counter := func(line []byte) (int64, bool) {
		if !bytes.HasPrefix(line, prefixValue) {
			return 0, false
		}
		n, err := strconv.ParseInt(string(line[len(prefixValue):]), 10, 64)
		return n, err == nil
	}
	var total, wrong int64
	if err := mget(ks.accts, func(i int, line []byte) {
		var want int64
		for _, c := range clients {
			want += c.acct[i]
		}
		n, ok := counter(line)
		total += n
		if !ok || n != want {
			wrong++
		}
	}); err != nil {
		return err
	}
	if err := mget(ks.hits, func(i int, line []byte) {
		var want int64
		for _, c := range clients {
			want += c.hit[i]
		}
		if n, ok := counter(line); !ok || n != want {
			wrong++
		}
	}); err != nil {
		return err
	}
	res.check(total == 0, "transfer accounts sum to %d, want 0", total)
	res.checkN(int64(len(ks.accts)+len(ks.hits)), wrong, "%d counters differ from the sum of their acknowledged deltas", wrong)
	return nil
}
