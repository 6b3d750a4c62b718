package stm

import (
	"encoding/json"
	"testing"
)

// newSampledSTM builds an instance that samples every transaction, so
// metric assertions are deterministic.
func newSampledSTM(e Engine) *STM {
	return New(WithEngine(e), WithMetricsSampling(1))
}

// TestMetricsAlwaysOn pins that every instance records metrics: on any
// engine, Metrics is one non-nil pointer for the instance's lifetime.
func TestMetricsAlwaysOn(t *testing.T) {
	for _, e := range Engines() {
		s := New(WithEngine(e))
		if m := s.Metrics(); m == nil || s.Metrics() != m {
			t.Fatalf("%v: Metrics() = %p, then %p; want one non-nil pointer", e, m, s.Metrics())
		}
	}
}

func TestMetricsCommitLatencySampled(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := newSampledSTM(e)
			v := s.NewVar("x", 0)
			const n = 50
			for i := 0; i < n; i++ {
				if err := s.Atomically(func(tx *Tx) error {
					tx.Write(v, tx.Read(v)+1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			m := s.Metrics()
			if m == nil {
				t.Fatal("metrics should default on")
			}
			cs := m.CommitNs.Snapshot()
			if cs.Count != n {
				t.Fatalf("CommitNs count = %d, want %d (sampling=1)", cs.Count, n)
			}
			if cs.Quantile(0.5) <= 0 {
				t.Fatal("commit latency p50 must be positive")
			}
			as := m.Attempts.Snapshot()
			if as.Count != n {
				t.Fatalf("Attempts count = %d, want %d", as.Count, n)
			}
			if got := as.Quantile(1.0); got < 1 {
				t.Fatalf("max attempts = %d, want >= 1", got)
			}
		})
	}
}

func TestMetricsReadOnlyLatencySampled(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := newSampledSTM(e)
			v := s.NewVar("x", 7)
			const n = 20
			for i := 0; i < n; i++ {
				if err := s.AtomicallyRead(func(r *ReadTx) error {
					if r.Read(v) != 7 {
						t.Error("wrong value")
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			ro := s.Metrics().ReadOnlyNs.Snapshot()
			if ro.Count != n {
				t.Fatalf("ReadOnlyNs count = %d, want %d", ro.Count, n)
			}
			if cs := s.Metrics().CommitNs.Snapshot(); cs.Count != 0 {
				t.Fatalf("read-only commits must not land in CommitNs (count=%d)", cs.Count)
			}
		})
	}
}

func TestMetricsDefaultSamplingPeriod(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// pooled sampling tick never accumulates deterministically.
		t.Skip("pool recycling is nondeterministic under -race")
	}
	s := New() // default 1-in-256
	v := s.NewVar("x", 0)
	const n = 256 * 4
	for i := 0; i < n; i++ {
		if err := s.Atomically(func(tx *Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.Metrics().CommitNs.Snapshot()
	// Single-goroutine use recycles one pooled Tx, so the tick stream is
	// exact: one sample per 256 calls.
	if cs.Count != n/256 {
		t.Fatalf("CommitNs count = %d, want %d", cs.Count, n/256)
	}
}

// TestMetricsContentionAttribution pins conflict attribution
// deterministically: a variable whose lock bit is held (as an in-flight
// commit would hold it) makes every attempt that reads it conflict, and
// each conflict must be charged to that variable — not to the cold
// sibling the transaction also read.
func TestMetricsContentionAttribution(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			const retries = 3
			s := New(WithEngine(e), WithMetricsSampling(1), WithMaxRetries(retries))
			hot := s.NewVar("hot", 0)
			cold := s.NewVar("cold", 0)
			m := hot.meta.Load()
			hot.meta.Store(m | lockedBit) // simulate a commit in flight on hot
			err := s.Atomically(func(tx *Tx) error {
				_ = tx.Read(cold)
				tx.Write(hot, tx.Read(hot)+1)
				return nil
			})
			hot.meta.Store(m)
			if err == nil {
				t.Fatal("a transaction against a locked variable should exhaust its retries")
			}
			if got := s.Snapshot().Conflicts; got != retries {
				t.Fatalf("conflicts = %d, want %d", got, retries)
			}
			snap := s.Metrics().Contention.Snapshot()
			if len(snap) != 1 {
				t.Fatalf("contention table = %+v, want exactly the hot var", snap)
			}
			if snap[0].ID != hot.ID() {
				t.Fatalf("hottest id = %d, want %d (hot var)", snap[0].ID, hot.ID())
			}
			if snap[0].Count != retries {
				t.Fatalf("hot count = %d, want %d (one per conflicted attempt)", snap[0].Count, retries)
			}
		})
	}
}

func TestMetricsParkDuration(t *testing.T) {
	s := newSampledSTM(Lazy)
	v := s.NewVar("gate", 0)
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Tx) error {
			if tx.Read(v) == 0 {
				tx.Block()
			}
			return nil
		})
	}()
	waitForParks(t, s, 1)
	if err := s.Atomically(func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ps := s.Metrics().ParkNs.Snapshot()
	if ps.Count == 0 {
		t.Fatal("a real park must land in ParkNs")
	}
	if ps.Quantile(1.0) <= 0 {
		t.Fatal("park duration must be positive")
	}
}

func TestMetricsReset(t *testing.T) {
	s := newSampledSTM(Lazy)
	v := s.NewVar("x", 0)
	for i := 0; i < 10; i++ {
		_ = s.Atomically(func(tx *Tx) error { tx.Write(v, 1); return nil })
	}
	m := s.Metrics()
	m.Contention.Record(v.ID())
	m.ParkNs.Observe(100)
	m.Reset()
	if m.CommitNs.Snapshot().Count != 0 || m.Attempts.Snapshot().Count != 0 ||
		m.ParkNs.Snapshot().Count != 0 || len(m.Contention.Snapshot()) != 0 {
		t.Fatal("Reset left residue")
	}
	// Cumulative stats survive a metrics reset.
	if s.Snapshot().Commits != 10 {
		t.Fatal("Reset must not clear Stats")
	}
}

func TestMetricsMultiAccountsToLead(t *testing.T) {
	a := newSampledSTM(Lazy)
	b := newSampledSTM(Lazy)
	va, vb := a.NewVar("a", 0), b.NewVar("b", 0)
	const n = 10
	for i := 0; i < n; i++ {
		if err := AtomicallyMulti([]*STM{a, b}, func(txs []*Tx) error {
			txs[0].Write(va, txs[0].Read(va)+1)
			txs[1].Write(vb, txs[1].Read(vb)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := AtomicallyReadMulti([]*STM{a, b}, func(rtxs []*ReadTx) error {
			_ = rtxs[0].Read(va)
			_ = rtxs[1].Read(vb)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Metrics().CommitNs.Snapshot().Count; got != n {
		t.Fatalf("lead CommitNs count = %d, want %d", got, n)
	}
	if got := a.Metrics().ReadOnlyNs.Snapshot().Count; got != n {
		t.Fatalf("lead ReadOnlyNs count = %d, want %d", got, n)
	}
	if got := b.Metrics().CommitNs.Snapshot().Count; got != 0 {
		t.Fatalf("non-lead CommitNs count = %d, want 0", got)
	}
}

func TestVarID(t *testing.T) {
	s := New()
	v1 := s.NewVar("a", 0)
	v2 := s.NewVar("b", 0)
	tv := NewTVar(s, "c", "hello")
	if v1.ID() == 0 || v2.ID() == 0 || tv.ID() == 0 {
		t.Fatal("ids must be nonzero (0 is the hot table's free slot)")
	}
	if v1.ID() == v2.ID() || v2.ID() == tv.ID() {
		t.Fatal("ids must be distinct")
	}
}

func TestStatsSnapshotJSONStable(t *testing.T) {
	snap := StatsSnapshot{
		Commits:         1,
		Conflicts:       2,
		UserAborts:      3,
		MultiCommits:    4,
		ReadOnlyCommits: 5,
		Quiesces:        6,
		Waits:           7,
		Wakeups:         8,
		SpuriousWakeups: 9,
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The wire field names are a stable format; this test pins them.
	want := `{"commits":1,"conflicts":2,"user_aborts":3,"multi_commits":4,` +
		`"read_only_commits":5,"quiesces":6,"waits":7,"wakeups":8,"spurious_wakeups":9}`
	if string(b) != want {
		t.Fatalf("wire format changed:\n got %s\nwant %s", b, want)
	}
	var back StatsSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != snap {
		t.Fatalf("round trip changed snapshot: %+v", back)
	}
}
