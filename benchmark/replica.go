package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/wal"
)

// replica-stream: a durable primary ships its WAL through
// cluster.Streamer to a kv.Replica fed by cluster.Client over loopback
// TCP, all in this process. Set-up ends with the replica catching up on
// a preloaded log (phase A); the window is an open loop (phase B):
// writers offer writes to the primary on a fixed schedule, and a
// changefeed subscription on the replica's store says when each write
// became visible there.
//
// Open loop, because replication lag under a closed loop depends on how
// hard the generator happens to push and does not repeat.

type replicaSpec struct {
	name      string
	setups    int     // set-up runs this often in an untraced run and setup_s is the median
	nkeys     int     // byte keys the preload and the writers cycle over
	naccts    int     // transfer accounts
	preload   int     // records in the primary's log before the replica connects
	zipfS     float64 // key skew of phase B
	writers   int
	writeRate float64    // writes/s offered in total
	mix       []mixEntry // writer 0's; the others write setOnly
}

func replicaSpecFor(scale float64) replicaSpec {
	n := func(full, floor int) int { return max(floor, int(float64(full)*scale)) }
	return replicaSpec{name: "replica-stream", setups: 3, nkeys: n(32_768, 512), naccts: 256, preload: n(300_000, 4096),
		zipfS: 1.1, writers: 2, writeRate: 10_000,
		mix: []mixEntry{{opSet, 80}, {opTransfer, 20}}}
}

// setOnly is the mix of every writer but the first. All the transfers
// (10% of the writes) come from writer 0, one at a time: two goroutines
// committing cross-shard transactions at once can take their per-shard
// sequence numbers in opposite orders on two shards, and the replica,
// which applies a cross-shard transaction only when all its records head
// their shards' queues, then waits for ever (seen twice in thirty runs
// with transfers on both writers; README.md, "Known gaps").
var setOnly = []mixEntry{{opSet, 100}}

// countingListener counts the bytes the streamer writes to its
// connections: the replication stream's size on the wire.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.written}, nil
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// replicaBench is a primary with a caught-up replica attached.
type replicaBench struct {
	dir       string
	primary   *kv.Store
	streamer  *cluster.Streamer
	served    chan struct{} // closed when Streamer.Serve has returned
	wireBytes atomic.Int64
	replica   *kv.Replica
	client    *cluster.Client
	stop      context.CancelFunc
	ran       chan struct{} // closed when Client.Run has returned
	loadDur   time.Duration
	catchup   time.Duration
	closed    bool
}

func (b *replicaBench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.stop != nil {
		b.stop()
		<-b.ran
	}
	if b.streamer != nil {
		b.streamer.Close()
		<-b.served
	}
	var err error
	if b.primary != nil {
		err = b.primary.Close()
	}
	return errors.Join(err, os.RemoveAll(b.dir))
}

// caughtUp reports whether the replica holds everything the primary has
// committed: every shard's watermark at the primary's position and
// nothing held back waiting for a sibling or a marker.
func (b *replicaBench) caughtUp() (bool, error) {
	pos, _, err := b.primary.ReplPositions()
	if err != nil {
		return false, err
	}
	for i, want := range pos {
		if b.replica.Watermark(i) < want {
			return false, nil
		}
	}
	return b.replica.Stats().Pending == 0, nil
}

func (b *replicaBench) waitCaughtUp(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for {
		ok, err := b.caughtUp()
		if err != nil {
			return 0, err
		}
		if ok {
			return time.Since(t0), nil
		}
		if time.Since(t0) > timeout {
			pos, marker, _ := b.primary.ReplPositions()
			return 0, fmt.Errorf("replica not caught up after %v: primary at %v marker %d, replica %+v, client %+v, streamer %+v",
				timeout, pos, marker, b.replica.Stats(), b.client.Stats(), b.streamer.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startReplica is the workload's set-up: open the primary at the batch
// flush level, write the preload, start the streamer, attach a fresh
// replica and wait until it has caught up.
func startReplica(spec *replicaSpec, ks *keyspace, scratch string) (b *replicaBench, err error) {
	dir, err := os.MkdirTemp(scratch, "primary-")
	if err != nil {
		return nil, err
	}
	b = &replicaBench{dir: dir}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.primary, err = kv.Open(kv.WithDurability(filepath.Join(dir, "data"), wal.Batch)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	b.primary.EnsureKeys(ks.keys...)
	b.primary.EnsureCounters(ks.accts...)
	const loaders = 2
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := newValue()
			for i := g; i < spec.preload; i += loaders {
				k := i % len(ks.keys)
				stamp(val, ks.sums[k], uint64(i), 0)
				if err := b.primary.Set(ks.keys[k], val); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		return nil, err
	}
	b.loadDur = time.Since(t0)

	if b.streamer, err = cluster.NewStreamer(b.primary); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.streamer = nil
		return nil, err
	}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.streamer.Serve(countingListener{ln, &b.wireBytes})
	}()
	if b.replica, err = kv.NewReplica(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.client = &cluster.Client{Addr: ln.Addr().String(), Replica: b.replica}
	b.stop, b.ran = cancel, make(chan struct{})
	go func() {
		defer close(b.ran)
		b.client.Run(ctx)
	}()
	if b.catchup, err = b.waitCaughtUp(60 * time.Second); err != nil {
		return nil, err
	}
	return b, nil
}

// replicaWriter is one open-loop writer against the primary.
type replicaWriter struct {
	ks   *keyspace
	ring *ring
	pos  int
	st   *kv.Store
	val  []byte
	ver  uint64

	pair       [2]string
	move       int64
	transferFn func(*kv.Txn) error

	ops, failed int64
	late        []int64 // how late each op was sent, ns
	tr          *tracer
	req         uint32
}

// run offers writes at rate/s until the schedule passes the window. A
// SET's value carries its due time, which is where the replica side
// measures lag from.
func (w *replicaWriter) run(start time.Time, window time.Duration, rate float64) {
	p := pacer{start: start, rate: rate}
	mask := len(w.ring.ops) - 1
	for {
		due, late := p.next()
		if due >= window {
			return
		}
		w.late = append(w.late, int64(late))
		o := w.ring.ops[w.pos&mask]
		w.pos++
		w.ops++
		var root int32 = -1
		var t0 int64
		if w.tr != nil {
			w.req++
			t0 = w.tr.now()
			w.tr.add(spanGenLate, int64(due), int64(due+late), -1, w.req)
			root = w.tr.begin(spanGenOp, t0, w.req)
		}
		var err error
		name := uint16(spanKVSet)
		if o.code == opSet {
			w.ver++
			stamp(w.val, w.ks.sums[o.a], w.ver, uint64(due))
			err = w.st.Set(w.ks.keys[o.a], w.val)
		} else {
			name = spanKVUpdate
			w.pair[0], w.pair[1], w.move = w.ks.accts[o.a], w.ks.accts[o.b], o.amount()
			err = w.st.Update(w.pair[:], w.transferFn)
		}
		if w.tr != nil {
			t1 := w.tr.now()
			w.tr.add(name, t0, t1, root, w.req)
			w.tr.finish(root, t1)
		}
		if err != nil {
			w.failed++
		}
	}
}

// replicaWindow is what one phase-B window leaves behind.
type replicaWindow struct {
	windowRun
	lagNs      []int64 // sorted write lags
	lateNs     []int64 // sorted generator lateness
	pendingMax int
	achieved   float64 // writes visible on the replica, per second from the window's start to the last of them
	audits     int64   // audit Views of the replica made beside the stream
	torn       int64   // of which saw half of a cross-shard transfer
	dropped    uint64
	events     int64
	drain      time.Duration
}

// runReplicaWindow runs one open-loop window and waits for the replica
// to drain what was offered.
func runReplicaWindow(b *replicaBench, spec *replicaSpec, ks *keyspace, writers []*replicaWriter,
	window time.Duration, traced bool) (replicaWindow, error) {
	nslices, slice := windowSlices(window)
	out := replicaWindow{windowRun: windowRun{slices: nslices}}
	feedRec := newRecorder(slice, nslices, int(spec.writeRate*2*window.Seconds()))
	out.recs = []*recorder{feedRec}

	runtime.GC() // as in runWindow: every window starts at the same point of the collector's cycle
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The buffer holds several seconds of events: the feed is lossy by
	// design and a dropped event is a lost lag sample.
	sub := b.replica.Store().SubscribeBuffer(ctx, "", 1<<16)
	start := time.Now()
	var feedTr *tracer
	if traced {
		feedTr = newTracer(start, 1<<20)
		out.tracers = append(out.tracers, feedTr)
	}
	for _, w := range writers {
		w.ops, w.failed, w.late, w.tr = 0, 0, make([]int64, 0, int(spec.writeRate*window.Seconds())), nil
		if traced {
			w.tr = newTracer(start, 1<<20)
			out.tracers = append(out.tracers, w.tr)
		}
	}

	// Feed consumer: a SET's arrival on the replica, timed from the due
	// time in its value, is one lag sample and one completed write; a
	// transfer completes with the second of its two counter events.
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		var csets, visible int64
		var last time.Duration
		for ev := range sub.Events() {
			at := time.Since(start)
			switch {
			case ev.Kind == wal.KindSet && len(ev.Val) == valueLen:
				due := time.Duration(valueWord(ev.Val))
				feedRec.add(at, 1)
				feedRec.sample(at, classWrite, int64(at-due))
				visible, last = visible+1, at
				if feedTr != nil {
					feedTr.add(spanClusterLag, int64(due), int64(at), -1, uint32(valueVer(ev.Val)))
				}
			case ev.Kind == wal.KindCounterSet:
				if csets++; csets%2 == 0 {
					feedRec.add(at, 1)
					visible, last = visible+1, at
				}
			}
			out.events++
		}
		out.achieved = ratio(float64(visible), last.Seconds())
	}()
	// Monitor, outside the op and latency accounting: how many records the
	// replica is holding back, and on every fourth tick an audit View of
	// the replica. A transactional reader there never sees half of a
	// cross-shard transfer: the accounts always sum to zero.
	monStop, monDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(monDone)
		var sum int64
		auditFn := func(t *kv.ViewTxn) error {
			sum = 0
			for _, k := range ks.accts {
				n, _ := t.Counter(k)
				sum += n
			}
			return nil
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-monStop:
				return
			case <-tick.C:
				out.pendingMax = max(out.pendingMax, b.replica.Stats().Pending)
				if n%4 == 0 {
					out.audits++
					if err := b.replica.Store().View(ks.accts, auditFn); err != nil || sum != 0 {
						out.torn++
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for _, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(start, window, spec.writeRate/float64(len(writers)))
		}()
	}
	wg.Wait()
	drain, err := b.waitCaughtUp(30 * time.Second)
	close(monStop)
	<-monDone
	out.dropped = sub.Dropped()
	cancel()
	sub.Close()
	<-feedDone
	if err != nil {
		return out, err
	}
	out.drain = drain
	for _, w := range writers {
		out.ops += w.ops
		out.failed += w.failed
		out.lateNs = append(out.lateNs, w.late...)
		w.tr = nil
	}
	slices.Sort(out.lateNs)
	out.lagNs = windowSamples([]*recorder{feedRec}, len(feedRec.ops), classWrite)
	return out, nil
}

func runReplica(spec replicaSpec, cfg runConfig) (*result, error) {
	res := newResult(spec.name, cfg.traced)
	probeTr, err := runProbes(res, cfg)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(spec.nkeys, spec.naccts, 0)
	rings := make([]*ring, spec.writers)
	for i := range rings {
		mix := setOnly
		if i == 0 {
			mix = spec.mix
		}
		rings[i] = newRing(cfg.seed, i, ks, ringSpec{mix: mix, zipfS: spec.zipfS,
			nkeys: spec.nkeys, mgetN: 1, length: cfg.ringLen()})
	}

	var bench *replicaBench
	setups, err := cfg.timeSetups(spec.setups, func() (err error) {
		bench, err = startReplica(&spec, ks, cfg.scratch)
		return err
	}, func() error { return bench.close() })
	if err != nil {
		return nil, err
	}
	defer bench.close()

	writers := make([]*replicaWriter, spec.writers)
	for i := range writers {
		w := &replicaWriter{ks: ks, ring: rings[i], st: bench.primary, val: newValue()}
		w.transferFn = func(t *kv.Txn) error {
			t.Add(w.pair[0], -w.move)
			t.Add(w.pair[1], w.move)
			return nil
		}
		writers[i] = w
	}
	window := cfg.measured()
	run, err := runReplicaWindow(bench, &spec, ks, writers, window, false)
	if err != nil {
		return nil, err
	}
	// The peak of set-up and the window, before the benchmark's own
	// reckoning adds to it.
	peak, _, err := procMem(0)
	if err != nil {
		return nil, err
	}
	checkWindow := func(run replicaWindow) {
		res.attempted += run.ops
		res.failed += run.failed
		res.check(run.dropped == 0, "changefeed dropped %d events: lag samples lost", run.dropped)
		res.checkN(run.audits, run.torn, "%d of %d replica audits failed or saw a torn cross-shard transfer", run.torn, run.audits)
		// A bounded backlog drains as soon as the offer stops.
		res.check(run.drain < 2*time.Second, "replica needed %v to drain after the window: backlog was growing", run.drain)
	}
	checkWindow(run)
	if !cfg.traced {
		res.set("setup_s", median(setups))
		res.latencyMetrics(run.windowRun)
		res.set("ops_per_s", run.achieved)
	} else {
		untracedRate := run.achieved
		res.tailMetrics(run.windowRun)
		before := readStoreStats(bench.primary)
		st0, rs0, bytes0 := bench.streamer.Stats(), bench.replica.Stats(), bench.wireBytes.Load()
		if run, err = runReplicaWindow(bench, &spec, ks, writers, window, true); err != nil {
			return nil, err
		}
		after := readStoreStats(bench.primary)
		st1, rs1, bytes1 := bench.streamer.Stats(), bench.replica.Stats(), bench.wireBytes.Load()
		checkWindow(run)
		res.setLayerCounters(before, after)
		res.set("catchup_records_per_s", ratio(float64(spec.preload), bench.catchup.Seconds()))
		res.set("repl_lag_p50_ms", float64(quantile(run.lagNs, 0.5))/1e6)
		res.set("repl_lag_p99_ms", float64(guardedQuantile(run.lagNs, 0.99))/1e6)
		res.set("cluster.catchup_s", bench.catchup.Seconds())
		res.set("cluster.records_streamed", float64(st1.Records-st0.Records))
		res.set("cluster.snapshots_sent", float64(st1.Snapshots))
		res.set("cluster.connects", float64(bench.client.Stats().Connects))
		res.set("cluster.applied", float64(rs1.Applied-rs0.Applied))
		res.set("cluster.xapplied", float64(rs1.XApplied-rs0.XApplied))
		res.set("cluster.pending_max", float64(run.pendingMax))
		res.set("cluster.wire_bytes_per_record", ratio(float64(bytes1-bytes0), float64(st1.Records-st0.Records)))
		res.set("kv.load_keys_per_s", ratio(float64(spec.preload), bench.loadDur.Seconds()))
		res.set("kv.set_p50_ns", float64(quantile(spanDurations(run.tracers, spanKVSet), 0.5)))
		res.set("kv.update2_p50_ns", float64(quantile(spanDurations(run.tracers, spanKVUpdate), 0.5)))
		res.set("gen.late_p99_ms", float64(guardedQuantile(run.lateNs, 0.99))/1e6)
		res.traceMetrics(run.tracers, run.achieved, untracedRate)
		if err := cfg.writeTrace(spec.name, append(run.tracers, probeTr)); err != nil {
			return nil, err
		}
	}
	// The replica converged: it holds byte for byte what the primary holds.
	var differ int64
	rs := bench.replica.Store()
	for _, k := range ks.keys {
		pv, pok := bench.primary.FastGet(k)
		rv, rok := rs.FastGet(k)
		if pok != rok || !bytes.Equal(pv, rv) {
			differ++
		}
	}
	var total int64
	for _, k := range ks.accts {
		pn, _ := bench.primary.FastCounterGet(k)
		rn, _ := rs.FastCounterGet(k)
		total += rn
		if pn != rn {
			differ++
		}
	}
	res.checkN(int64(len(ks.keys)+len(ks.accts)), differ, "replica differs from the primary on %d keys", differ)
	res.check(total == 0, "replica's transfer accounts sum to %d, want 0", total)

	res.finish(peak)
	return res, bench.close()
}
