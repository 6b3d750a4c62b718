// Replication walkthrough and measurement: a durable primary ships its
// WAL over loopback TCP to a read replica, and the program measures the
// two numbers the EXPERIMENTS.md replication section reports:
//
//   - catch-up throughput: a replica attaching to a primary that
//     already holds N committed records, timed from dial to Ready;
//   - steady-state replica lag: with the stream live, the delay from a
//     primary commit to the moment the replica's position covers it,
//     sampled per write (p50 / p99 / max).
//
// Run with: go run ./examples/replication
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/wal"
)

const (
	shards   = 8
	preload  = 50_000 // records committed before the replica attaches
	liveOps  = 5_000  // lag samples once the stream is live
	crossPct = 10     // every 10th live write is a cross-shard TXN
)

func main() {
	dir, err := os.MkdirTemp("", "mtx-repl-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// The primary: a durable store (WALNone keeps the example fast; the
	// stream ships identical bytes at every level) plus a streamer.
	primary, err := kv.Open(kv.WithShards(shards),
		kv.WithDurability(dir, wal.None))
	if err != nil {
		panic(err)
	}
	defer primary.Close()
	for i := 0; i < preload; i++ {
		if err := primary.Set(fmt.Sprintf("key-%06d", i), []byte("preloaded value")); err != nil {
			panic(err)
		}
	}

	st, err := cluster.NewStreamer(primary)
	if err != nil {
		panic(err)
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go st.Serve(ln)

	// The replica: an in-memory store (any shard count; records route by
	// key), fed by the reconnecting client.
	replica, err := kv.NewReplica(kv.WithShards(shards))
	if err != nil {
		panic(err)
	}
	defer replica.Store().Close()
	client := &cluster.Client{Addr: ln.Addr().String(), Replica: replica}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go client.Run(ctx)

	// Catch-up: how long until the replica covers the preloaded history.
	start := time.Now()
	for !replica.Ready() {
		time.Sleep(100 * time.Microsecond)
	}
	catchup := time.Since(start)
	fmt.Printf("catch-up: %d records in %v (%.0f records/s)\n",
		preload, catchup.Round(time.Millisecond),
		float64(preload)/catchup.Seconds())

	// Steady-state lag: per committed write, the time until the replica's
	// position reaches the commit. Cross-shard TXNs ride along in the
	// measured mix.
	lags := make([]time.Duration, 0, liveOps)
	for i := 0; i < liveOps; i++ {
		key := fmt.Sprintf("live-%06d", i)
		t0 := time.Now()
		if i%crossPct == 0 {
			keys := []string{fmt.Sprintf("acct-a-%d", i), fmt.Sprintf("acct-b-%d", i)}
			if err := primary.Update(keys, func(tx *kv.Txn) error {
				tx.Add(keys[0], -1)
				tx.Add(keys[1], 1)
				return nil
			}); err != nil {
				panic(err)
			}
		} else if err := primary.Set(key, []byte("live value")); err != nil {
			panic(err)
		}
		seq, err := primary.ReplPosition()
		if err != nil {
			panic(err)
		}
		for replica.Position() < seq {
			time.Sleep(20 * time.Microsecond)
		}
		lags = append(lags, time.Since(t0))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	fmt.Printf("replica lag over %d live writes (%d%% cross-shard): p50 %v  p99 %v  max %v\n",
		liveOps, 100/crossPct,
		lags[len(lags)/2].Round(time.Microsecond),
		lags[len(lags)*99/100].Round(time.Microsecond),
		lags[len(lags)-1].Round(time.Microsecond))

	rs := replica.Stats()
	fmt.Printf("replica: %d records applied, %d of them cross-shard\n", rs.Applied, rs.XApplied)
}
