package kv_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// TestReplicaCrossed is ROADMAP 0(b)'s reproduction on the one-log
// store: two cross-shard transfers from two goroutines over the same
// two shards, committed in a forced order — the first to start commits
// last, its body held until the second has committed — and streamed
// through a Streamer and a Client into a replica. With a sequence per
// shard such a pair could take its numbers in opposite orders on its
// two shards and stall the replica for good; with one LSN per
// transaction the replica must catch up and hold nothing back, on every
// engine. (The global-lock engine runs a transaction's body under its
// shards' locks, so there the two commit in the order they start.)
func TestReplicaCrossed(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) { testReplicaCrossed(t, eng) })
	}
}

func testReplicaCrossed(t *testing.T, eng stm.Engine) {
	p, err := kv.Open(kv.WithShards(2), kv.WithEngine(eng), kv.WithDurability(t.TempDir(), wal.None))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var on [2][]string // two keys per shard
	for i := 0; len(on[0]) < 2 || len(on[1]) < 2; i++ {
		k := fmt.Sprintf("acct-%d", i)
		if sh := p.ShardOf(k); len(on[sh]) < 2 {
			on[sh] = append(on[sh], k)
		}
	}
	p.EnsureCounters(on[0][0], on[0][1], on[1][0], on[1][1])

	st, err := cluster.NewStreamer(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		st.Serve(ln)
	}()
	defer func() { st.Close(); <-served }()
	r, err := kv.NewReplica(kv.WithShards(2), kv.WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		(&cluster.Client{Addr: ln.Addr().String(), Replica: r}).Run(ctx)
	}()
	defer func() { cancel(); <-ran }()

	transfer := func(i int, hold func()) error {
		keys := []string{on[0][i], on[1][i]}
		return p.Update(keys, func(tx *kv.Txn) error {
			tx.Add(keys[0], -int64(i+1))
			tx.Add(keys[1], int64(i+1))
			hold()
			return nil
		})
	}
	started, second := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		first := true
		errs <- transfer(0, func() {
			if first && eng != stm.GlobalLock {
				first = false
				close(started)
				<-second
			}
		})
	}()
	go func() {
		if eng != stm.GlobalLock {
			<-started
		}
		errs <- transfer(1, func() {})
		close(second)
	}()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	want, err := p.ReplPosition()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); r.Position() < want; time.Sleep(time.Millisecond) {
		if st := r.Stats(); st.Pending != 0 {
			t.Fatalf("replica holds %d records back: %+v", st.Pending, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stalled at %d, primary at %d: %+v", r.Position(), want, r.Stats())
		}
	}
	for sh := range on {
		for i, k := range on[sh] {
			want := int64(i + 1)
			if sh == 0 {
				want = -want
			}
			if n, _ := r.Store().FastCounterGet(k); n != want {
				t.Errorf("%s = %d on the replica, want %d", k, n, want)
			}
		}
	}
}
