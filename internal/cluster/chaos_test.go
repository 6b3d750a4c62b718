package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"modtx/internal/fault"
	"modtx/internal/kv"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// chaosSeed fixes the fault schedule. CI runs exactly this seed; a
// failure reproduces locally with no search.
const chaosSeed = 0xC4A05

// chaosListener wraps accepted conns in the fault injector so the
// streamer's writes (the primary→replica direction, where the records
// flow) are subject to cuts and stalls, not just the replica's reads.
type chaosListener struct {
	net.Listener
	n *fault.Net
}

func (l chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.Wrap(c), nil
}

// TestChaosTransfers is the end-to-end chaos harness: a cross-shard
// transfer workload on a durable primary, streamed to a replica through
// a faulty network over a faulty disk, in three phases —
//
//	A: network chaos (mid-frame cuts, delays, dial failures, one full
//	   partition cycle) while transfers run. Invariants: the primary's
//	   total is conserved, the replica never exposes a partial
//	   cross-shard transaction (its total is always 0 or the full sum),
//	   and once the network heals the replica converges per account.
//	B: a disk fault latches the WAL. The store must transition to
//	   degraded and refuse every later write, leaving its in-memory
//	   total where it was.
//	C: the disk heals and the primary reopens. Recovery must yield a
//	   transaction-consistent state — a transfer is one record, kept
//	   whole or dropped whole: the total is conserved exactly.
//
// The schedule is seeded: every run injects the same faults in the same
// call order.
func TestChaosTransfers(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) { runChaos(t, eng) })
	}
}

func runChaos(t *testing.T, eng stm.Engine) {
	const (
		accounts  = 16
		seedBal   = 1000
		total     = accounts * seedBal
		transfers = 200
	)

	dir := t.TempDir()
	dfs := fault.NewDiskFS(wal.OSFS, fault.DiskPlan{
		Seed:        chaosSeed,
		Latency:     200 * time.Microsecond,
		LatencyProb: 0.02,
	})
	open := func() *kv.Store {
		s, err := kv.Open(
			kv.WithDurability(dir, wal.Batch),
			kv.WithShards(4),
			kv.WithEngine(eng),
			kv.WithWALFS(dfs),
		)
		if err != nil {
			t.Fatalf("open primary: %v", err)
		}
		return s
	}
	p := open()

	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%02d", i)
	}
	// One cross-shard transaction seeds every balance: the replica either
	// sees no accounts or all of them, never a partial ledger.
	if err := p.Update(keys, func(tx *kv.Txn) error {
		for _, k := range keys {
			tx.Add(k, seedBal)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sumOf := func(s *kv.Store) (sum int64, all bool) {
		err := s.View(keys, func(tx *kv.ViewTxn) error {
			sum, all = 0, true // optimistic engines re-run the closure on conflict
			for _, k := range keys {
				v, ok := tx.Counter(k)
				if !ok {
					all = false
				}
				sum += v
			}
			return nil
		})
		if err != nil {
			return 0, false
		}
		return
	}

	// The chaos network sits on both sides of the stream: the listener
	// wraps the streamer's conns, the client dials through it.
	cnet := fault.NewNet(fault.NetPlan{
		Seed:        chaosSeed,
		CutProb:     0.01,
		DelayProb:   0.05,
		Delay:       500 * time.Microsecond,
		StallProb:   0.001,
		Stall:       20 * time.Millisecond,
		DialErrProb: 0.05,
	})
	st, err := NewStreamer(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		st.Serve(chaosListener{Listener: ln, n: cnet})
	}()
	addr := ln.Addr().String()

	r, err := kv.NewReplica(kv.WithShards(4), kv.WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	ctx, cancel := context.WithCancel(context.Background())
	clientDone := make(chan struct{})
	c := &Client{Addr: addr, Replica: r, Dial: cnet.Dial}
	go func() {
		defer close(clientDone)
		if err := c.Run(ctx); err != nil && ctx.Err() == nil && !errors.Is(err, ErrProto) {
			t.Errorf("client: %v", err)
		}
	}()
	stopClient := func() { cancel(); <-clientDone }

	waitFor(t, "chaos catch-up", r.Ready)

	// Replica reader: the total it can observe is 0 (ledger not yet
	// applied) or the full sum — anything else is a torn cross-shard
	// transaction leaking through the stream.
	stopRead := make(chan struct{})
	readDone := make(chan struct{})
	var violations atomic.Int64
	go func() {
		defer close(readDone)
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			sum, all := sumOf(r.Store())
			if all && sum != total {
				violations.Add(1)
			}
		}
	}()

	// Phase A: transfers under network chaos, with a full partition for
	// the middle third of the run.
	rng := rand.New(rand.NewPCG(chaosSeed, chaosSeed>>1|1))
	xshard := 1 // the seeding transaction spans every shard
	committed := 0
	transfer := func() {
		from, to := rng.IntN(accounts), rng.IntN(accounts)
		if from == to {
			to = (to + 1) % accounts
		}
		if p.ShardOf(keys[from]) != p.ShardOf(keys[to]) {
			xshard++
		}
		if err := p.Update([]string{keys[from], keys[to]}, func(tx *kv.Txn) error {
			tx.Add(keys[from], -1)
			tx.Add(keys[to], 1)
			return nil
		}); err != nil {
			t.Fatalf("transfer %d: %v", committed, err)
		}
		committed++
	}
	for i := 0; i < transfers; i++ {
		switch i {
		case transfers / 3:
			// The stream is one batched session, so the seeded schedule
			// gets few rolls in a fixed number of transfers. Hold the
			// partition back until the network has cut a conn and delayed
			// an op, committing transfers meanwhile: each one the streamer
			// writes is another roll.
			deadline := time.Now().Add(30 * time.Second)
			for ns := cnet.Stats(); ns.Cuts == 0 || ns.Delays == 0; ns = cnet.Stats() {
				if time.Now().After(deadline) {
					t.Fatalf("network chaos did not both cut and delay in 30s: %+v", ns)
				}
				transfer()
				time.Sleep(time.Millisecond)
			}
			cnet.Partition(true)
			// Partitioning kills the live conns, so the client's blocked
			// read fails now; hold the partition until it has refused an
			// operation (the client's redial, whenever its backoff lands).
			deadline = time.Now().Add(30 * time.Second)
			for cnet.Stats().Partitions == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("the partition refused nothing in 30s: %+v", cnet.Stats())
				}
				time.Sleep(time.Millisecond)
			}
		case 2 * transfers / 3:
			cnet.Partition(false)
		}
		transfer()
	}
	cnet.Partition(false) // idempotent: make sure the network is up

	if sum, all := sumOf(p); !all || sum != total {
		t.Fatalf("primary sum after chaos = %d (all=%v), want %d", sum, all, total)
	}

	// Convergence: once dials succeed again the client re-handshakes
	// from its position and drains the backlog. Reconnect backoff caps
	// at 4s, so give it room.
	deadline := time.Now().Add(60 * time.Second)
	for {
		sum, all := sumOf(r.Store())
		if all && sum == total && r.Stats().XApplied >= uint64(xshard) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: sum=%d all=%v xapplied=%d",
				sum, all, r.Stats().XApplied)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Per-account equality, not just the total.
	for _, k := range keys {
		pv, _, _ := p.CounterGet(k)
		rv, _, _ := r.Store().CounterGet(k)
		if pv != rv {
			t.Fatalf("%s: primary %d, replica %d", k, pv, rv)
		}
	}

	close(stopRead)
	<-readDone
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d torn cross-shard transactions observed on the replica", v)
	}
	ns := cnet.Stats()
	if ns.Cuts+ns.Delays+ns.Stalls+ns.DialErrs == 0 {
		t.Fatal("network chaos injected nothing — the harness is not wired in")
	}
	if ns.Partitions == 0 {
		t.Fatal("the partition was never exercised: no operation was refused by it")
	}

	// Phase B: the disk fails under the WAL. At the batch level a write
	// is acknowledged before its fsync, so the probes before the flip
	// may succeed; none may fail any other way.
	dfs.FailNextWrite(fault.ErrIO)
	for i := 0; i < 50; i++ {
		if err := p.Set("chaos-probe", []byte{byte(i)}); err != nil && !errors.Is(err, kv.ErrDegraded) {
			t.Fatalf("write during fault: %v", err)
		}
		if deg, _ := p.Degraded(); deg {
			break
		}
		time.Sleep(time.Millisecond)
	}
	deg, derr := p.Degraded()
	if !deg {
		t.Fatal("disk fault did not transition the store to degraded")
	}
	if !errors.Is(derr, fault.ErrInjected) {
		t.Fatalf("degraded cause: %v", derr)
	}
	if ws := p.WALStats(); !ws.Degraded {
		t.Fatalf("WALStats after fault: %+v", ws)
	}
	// The degraded store refuses every write, so nothing diverges from
	// the log: the in-memory total stays where it was.
	if err := p.Set("chaos-probe", nil); !errors.Is(err, kv.ErrDegraded) {
		t.Fatalf("degraded Set: got %v, want ErrDegraded", err)
	}
	for i := 0; i < 20; i++ {
		from, to := rng.IntN(accounts), rng.IntN(accounts)
		if from == to {
			to = (to + 1) % accounts
		}
		if err := p.Update([]string{keys[from], keys[to]}, func(tx *kv.Txn) error {
			tx.Add(keys[from], -1)
			tx.Add(keys[to], 1)
			return nil
		}); !errors.Is(err, kv.ErrDegraded) {
			t.Fatalf("degraded transfer %d: got %v, want ErrDegraded", i, err)
		}
	}
	if sum, all := sumOf(p); !all || sum != total {
		t.Fatalf("degraded primary sum = %d (all=%v), want %d", sum, all, total)
	}

	shed := p.WALStats().ShedWrites

	// Tear down the stream before recovery.
	stopClient()
	st.Close()
	<-serveDone
	p.Close() // a close error is expected: one log is latched

	// Phase C: disk repaired, primary reopens. The log ends where it
	// latched, on a record boundary or inside a torn record; either way
	// recovery keeps whole transactions only, so the total is conserved
	// exactly.
	dfs.Heal()
	p2 := open()
	defer p2.Close()
	if deg, _ := p2.Degraded(); deg {
		t.Fatal("reopened store is degraded")
	}
	if sum, all := sumOf(p2); !all || sum != total {
		t.Fatalf("recovered sum = %d (all=%v), want %d", sum, all, total)
	}
	ds := dfs.Stats()
	t.Logf("chaos stats: xshard=%d/%d shed=%d disk=%+v net=%+v",
		xshard, committed+1, shed, ds, ns)
	if ds.WriteErrs == 0 {
		t.Fatal("disk chaos injected nothing")
	}
}
