package kv

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"modtx/internal/stm"
)

// sampledStore builds a store that samples every call, so latency
// assertions are deterministic.
func sampledStore(t *testing.T, e stm.Engine) *Store {
	t.Helper()
	return New(WithShards(8), WithEngine(e), WithMetricsSampling(1))
}

func TestOpNames(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range Ops() {
		n := op.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("op %d has bad/duplicate name %q", op, n)
		}
		seen[n] = true
	}
	if Op(99).String() != "unknown" {
		t.Fatal("out-of-range op must stringify as unknown")
	}
}

func TestOpLatenciesRecorded(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := sampledStore(t, e)
			if err := s.Set("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get("k"); err != nil || !ok {
				t.Fatal("get failed")
			}
			if _, err := s.CounterAdd("c", 1); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.CounterGet("c"); err != nil || !ok {
				t.Fatal("counter get failed")
			}
			if err := s.Update([]string{"k", "c"}, func(tx *Txn) error {
				tx.Set("k", []byte("v2"))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.View([]string{"k"}, func(v *ViewTxn) error {
				_, _ = v.Get("k")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WaitGet(context.Background(), "k"); err != nil {
				t.Fatal(err)
			}
			for _, op := range Ops() {
				snap := s.OpLatency(op)
				if snap.Count == 0 {
					t.Errorf("op %s recorded no latency", op)
				}
				if snap.Quantile(1.0) <= 0 {
					t.Errorf("op %s max latency not positive", op)
				}
			}
			lat := s.StmLatencies()
			if lat.CommitNs.Count == 0 {
				t.Error("no STM commit latencies recorded")
			}
			if lat.ReadOnlyNs.Count == 0 {
				t.Error("no STM read-only latencies recorded")
			}
			if lat.Attempts.Count == 0 {
				t.Error("no STM attempt counts recorded")
			}
		})
	}
}

func TestShardStats(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	if err := s.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FastGet("a"); !ok {
		t.Fatal("missing key")
	}
	stats := s.ShardStats()
	if len(stats) != s.NumShards() {
		t.Fatalf("got %d shard stats, want %d", len(stats), s.NumShards())
	}
	var keys int
	var commits, fastGets uint64
	for i, st := range stats {
		if st.Shard != i {
			t.Fatalf("stat %d has shard %d", i, st.Shard)
		}
		keys += st.Keys
		commits += st.Stm.Commits
		fastGets += st.FastGets
	}
	if keys != 1 || commits == 0 || fastGets != 1 {
		t.Fatalf("per-shard totals wrong: keys=%d commits=%d fastGets=%d", keys, commits, fastGets)
	}
	// Per-shard sums must agree with the aggregate view.
	agg := s.Stats()
	if agg.Keys != keys || agg.FastGets != fastGets || agg.Commits != commits {
		t.Fatalf("ShardStats totals disagree with Stats: %+v", agg)
	}
}

// TestHotKeysAttribution hammers one key from many goroutines (with a
// cold key alongside) and expects HotKeys to name it. The hot shard's
// WritebackDelay hook holds commit locks open for a moment, so conflicts
// happen deterministically even on a single-CPU machine.
func TestHotKeysAttribution(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	s.EnsureCounters("hot-counter", "cold-counter")
	s.ShardSTM(s.ShardOf("hot-counter")).WritebackDelay = func() {
		time.Sleep(20 * time.Microsecond)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.CounterAdd("hot-counter", 1); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					if _, err := s.CounterAdd("cold-counter", 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Stats().Conflicts == 0 {
		t.Skip("no conflicts observed; nothing to attribute")
	}
	hot := s.HotKeys(4)
	if len(hot) == 0 {
		t.Fatal("conflicts occurred but HotKeys is empty")
	}
	if hot[0].Key != "hot-counter" {
		t.Fatalf("hottest key = %q, want hot-counter (profile %+v)", hot[0].Key, hot)
	}
	if hot[0].Shard != s.ShardOf("hot-counter") {
		t.Fatalf("hot key attributed to shard %d, want %d", hot[0].Shard, s.ShardOf("hot-counter"))
	}
	// The trim honors n.
	if len(s.HotKeys(1)) > 1 {
		t.Fatal("HotKeys(1) returned more than one entry")
	}
}

// TestHotKeysSweptEntry checks that contention attributed to an entry
// that is later deleted degrades to the "(swept)" placeholder instead of
// disappearing or crashing.
func TestHotKeysSweptEntry(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	if _, err := s.CounterAdd("doomed", 1); err != nil {
		t.Fatal(err)
	}
	// Attribute synthetic contention directly to the entry's variables,
	// then delete the key so the id no longer resolves.
	sh, h := s.route("doomed")
	e := sh.lookup("doomed", h)
	sh.stm.Metrics().Contention.Record(e.c.ID())
	if _, err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	hot := s.HotKeys(0)
	found := false
	for _, h := range hot {
		if h.Key == "(swept)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("swept entry's contention should surface as (swept): %+v", hot)
	}
}

func TestResetMetrics(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.shards[0].stm.Metrics().Contention.Record(1)
	s.ResetMetrics()
	if s.OpLatency(OpSet).Count != 0 {
		t.Fatal("ResetMetrics left op latencies")
	}
	if lat := s.StmLatencies(); lat.CommitNs.Count != 0 {
		t.Fatal("ResetMetrics left STM latencies")
	}
	if len(s.HotKeys(0)) != 0 {
		t.Fatal("ResetMetrics left hot keys")
	}
	if s.Stats().Commits == 0 {
		t.Fatal("ResetMetrics must not clear cumulative Stats")
	}
}

func TestWaitGetLatencyCoversPark(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	done := make(chan error, 1)
	go func() {
		_, err := s.WaitGet(context.Background(), "appears-later")
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Waits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("WaitGet never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Set("appears-later", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := s.OpLatency(OpWaitGet)
	if snap.Count == 0 {
		t.Fatal("WaitGet latency not recorded")
	}
	lat := s.StmLatencies()
	if lat.ParkNs.Count == 0 {
		t.Fatal("the park should land in ParkNs")
	}
}

func TestStatsJSONStable(t *testing.T) {
	st := Stats{Shards: 1, Keys: 2, FastGets: 3, Commits: 4, Conflicts: 5,
		UserAborts: 6, MultiCommits: 7, ReadOnlyCommits: 8, Quiesces: 9,
		Waits: 10, Wakeups: 11, SpuriousWakeups: 12}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"shards":1`, `"keys":2`, `"fast_gets":3`, `"commits":4`,
		`"conflicts":5`, `"user_aborts":6`, `"multi_commits":7`,
		`"read_only_commits":8`, `"quiesces":9`, `"waits":10`,
		`"wakeups":11`, `"spurious_wakeups":12`,
	} {
		if !strings.Contains(string(b), field) {
			t.Errorf("marshaled Stats missing %s: %s", field, b)
		}
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed Stats: %+v", back)
	}
}

func TestShardStatJSONRoundTrip(t *testing.T) {
	s := sampledStore(t, stm.Lazy)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s.ShardStats())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stm":{"commits":`) {
		t.Fatalf("ShardStat JSON missing nested stm snapshot: %s", b)
	}
	var fields []map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range fields[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), "fast_gets,keys,shard,stm"; got != want {
		t.Fatalf("ShardStat JSON fields = %s, want %s", got, want)
	}
	var back []ShardStat
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != s.NumShards() {
		t.Fatal("round trip lost shards")
	}
}
