package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// replicaFeeder builds a primary-shaped record stream by hand: one
// record per transaction, dense LSNs — the exact shape the wire client
// delivers.
type replicaFeeder struct {
	r      *Replica
	lsn    uint64
	t      *testing.T
	recs   []wal.Record // accumulated when buffered, for batching tests
	buffer bool
}

func newFeeder(t *testing.T, r *Replica) *replicaFeeder {
	return &replicaFeeder{r: r, t: t}
}

// set emits a single-key set record.
func (f *replicaFeeder) set(key, val string) {
	f.emit(wal.Op{Kind: wal.KindSet, Key: key, Val: []byte(val)})
}

// xfer emits a transfer: CounterSets on two keys, one record.
func (f *replicaFeeder) xfer(from, to string, nfrom, nto int64) {
	f.emit(wal.Op{Kind: wal.KindCounterSet, Key: from, N: nfrom},
		wal.Op{Kind: wal.KindCounterSet, Key: to, N: nto})
}

func (f *replicaFeeder) emit(ops ...wal.Op) {
	f.lsn++
	rec := wal.Record{Seq: f.lsn, Ops: ops}
	if f.buffer {
		f.recs = append(f.recs, rec)
		return
	}
	if err := f.r.ApplyRecords([]wal.Record{rec}); err != nil {
		f.t.Fatalf("ApplyRecords(seq %d): %v", rec.Seq, err)
	}
}

// twoShardKeys finds two keys routing to distinct shards of r.
func twoShardKeys(t *testing.T, r *Replica, prefix string) (a, b string) {
	a = prefix + "-a0"
	for n := 0; n < 4096; n++ {
		b = fmt.Sprintf("%s-b%d", prefix, n)
		if r.Store().ShardOf(b) != r.Store().ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no key pair on distinct shards")
	return
}

func mustGet(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func mustCounter(t *testing.T, s *Store, key string) (int64, bool) {
	t.Helper()
	v, ok, err := s.CounterGet(key)
	if err != nil {
		t.Fatalf("CounterGet(%s): %v", key, err)
	}
	return v, ok
}

func TestReplicaApplyBasic(t *testing.T) {
	r, err := NewReplica(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	f := newFeeder(t, r)
	f.set("alpha", "1")
	f.set("beta", "2")
	f.set("alpha", "3")

	if v, ok := mustGet(t, r.Store(), "alpha"); !ok || v != "3" {
		t.Fatalf("alpha = %q, %v; want 3", v, ok)
	}
	if v, ok := mustGet(t, r.Store(), "beta"); !ok || v != "2" {
		t.Fatalf("beta = %q, %v; want 2", v, ok)
	}
	st := r.Stats()
	if st.Applied != 3 || st.Pending != 0 || st.Watermark != 3 {
		t.Fatalf("stats = %+v; want applied 3 pending 0 watermark 3", st)
	}
	if w := r.Position(); w != f.lsn {
		t.Fatalf("position = %d, want %d", w, f.lsn)
	}
}

func TestReplicaDuplicateAndGap(t *testing.T) {
	r, err := NewReplica(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	rec := func(seq uint64, val string) []wal.Record {
		return []wal.Record{{Seq: seq, Ops: []wal.Op{{Kind: wal.KindSet, Key: "k", Val: []byte(val)}}}}
	}
	for _, seq := range []uint64{1, 2} {
		if err := r.ApplyRecords(rec(seq, "v")); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate at or below the position: ignored.
	if err := r.ApplyRecords(rec(1, "stale")); err != nil {
		t.Fatalf("duplicate: %v", err)
	}
	if v, _ := mustGet(t, r.Store(), "k"); v != "v" {
		t.Fatalf("duplicate overwrote: %q", v)
	}
	// Gap: rejected with ErrReplicaGap.
	if err := r.ApplyRecords(rec(5, "x")); err == nil {
		t.Fatal("gap accepted")
	}
	if r.Position() != 2 {
		t.Fatalf("position = %d, want 2", r.Position())
	}
}

func TestReplicaRejectsDurability(t *testing.T) {
	var c config
	WithShards(2)(&c)
	c.durDir = t.TempDir()
	if _, err := NewReplica(func(cc *config) { *cc = c }); err == nil {
		t.Fatal("replica accepted a durable store config")
	}
}

func TestReplicaReadiness(t *testing.T) {
	r, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	if r.Ready() {
		t.Fatal("ready with no target")
	}
	f := newFeeder(t, r)
	f.set("a", "1")
	r.SetTarget(f.lsn + 1) // the primary is one ahead
	if r.Ready() {
		t.Fatal("ready before catching up")
	}
	f.set("b", "1")
	if !r.Ready() {
		t.Fatal("not ready after catching up")
	}
}

// TestReplicaCrossShardLitmus is the replica-semantics litmus, run
// against every registered engine: a stream of
// cross-shard transfers between two counters whose sum is invariant,
// fed in batches of random size so runs merge records differently.
// Concurrent transactional readers must never see the sum mid-transfer
// — a cross-shard transaction is one record and surfaces atomically.
func TestReplicaCrossShardLitmus(t *testing.T) {
	for _, eng := range stm.Engines() {
		testReplicaCrossShardLitmus(t, eng)
	}
}

func testReplicaCrossShardLitmus(t *testing.T, eng stm.Engine) {
	t.Run(eng.String(), func(t *testing.T) {
		r, err := NewReplica(WithShards(4), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Store().Close()
		a, b := twoShardKeys(t, r, "acct")
		f := newFeeder(t, r)
		f.buffer = true

		// Seed both accounts at 500 (sum 1000), then 200 transfers
		// of 1 from a to b, as absolute CounterSets.
		const seed, n = int64(500), 200
		f.xfer(a, b, seed, seed)
		for k := int64(1); k <= n; k++ {
			f.xfer(a, b, seed-k, seed+k)
		}
		recs := f.recs

		stop := make(chan struct{})
		var violations atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var sum int64
					var seen, half bool
					if err := r.Store().View([]string{a, b}, func(t *ViewTxn) error {
						va, oka := t.Counter(a)
						vb, okb := t.Counter(b)
						seen = oka || okb
						half = oka != okb
						sum = va + vb
						return nil
					}); err != nil {
						violations.Add(1)
						return
					}
					if seen && (half || sum != 2*seed) {
						violations.Add(1)
					}
				}
			}()
		}

		rng := rand.New(rand.NewSource(42))
		for len(recs) > 0 {
			k := min(len(recs), 1+rng.Intn(8))
			if err := r.ApplyRecords(recs[:k]); err != nil {
				t.Fatalf("ApplyRecords: %v", err)
			}
			recs = recs[k:]
		}
		close(stop)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d atomicity violations: readers saw a partial cross-shard transaction", v)
		}
		var spread int64
		if err := r.Store().View([]string{a, b}, func(t *ViewTxn) error {
			va, _ := t.Counter(a)
			vb, _ := t.Counter(b)
			spread = vb - va
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if spread != 2*n {
			t.Fatalf("final spread = %d, want %d", spread, 2*n)
		}
		if st := r.Stats(); st.XApplied != n+1 || st.Pending != 0 {
			t.Fatalf("xapplied = %d, pending = %d; want %d and 0", st.XApplied, st.Pending, n+1)
		}
	})
}

// TestReplicaResetShard: a snapshot reset replaces the replica's whole
// state and moves its position to the snapshot's; the stream resumes
// after it. (The reset went per shard before the store had one log;
// the test kept its name.)
func TestReplicaResetShard(t *testing.T) {
	r, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	f := newFeeder(t, r)
	f.set("old-key", "stale")
	f.set("gone-key", "x")

	// A snapshot exact at 40: its read state, then the tail records it
	// carries (a later write of old-key among them).
	snap := []wal.Record{
		{Seq: 37, Ops: []wal.Op{
			{Kind: wal.KindSet, Key: "old-key", Val: []byte("fresh")},
			{Kind: wal.KindCounterSet, Key: "snap-ctr", N: 7},
		}},
		{Seq: 38, Ops: []wal.Op{{Kind: wal.KindSet, Key: "old-key", Val: []byte("fresher")}}},
		{Seq: 39, Ops: []wal.Op{{Kind: wal.KindDelete, Key: "snap-ctr"}}},
		{Seq: 40, Ops: []wal.Op{{Kind: wal.KindSet, Key: "snap-ctr", Val: []byte("bytes now")}}},
	}
	if err := r.Reset(40, snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, r.Store(), "old-key"); v != "fresher" {
		t.Fatalf("old-key = %q, want fresher", v)
	}
	if _, ok := mustGet(t, r.Store(), "gone-key"); ok {
		t.Fatal("gone-key survived the reset")
	}
	if v, _ := mustGet(t, r.Store(), "snap-ctr"); v != "bytes now" {
		t.Fatalf("snap-ctr = %q, want bytes now", v)
	}
	if w := r.Position(); w != 40 {
		t.Fatalf("position = %d, want 40", w)
	}
	// The stream resumes at 41.
	if err := r.ApplyRecords([]wal.Record{{Seq: 41,
		Ops: []wal.Op{{Kind: wal.KindSet, Key: "old-key", Val: []byte("41")}}}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, r.Store(), "old-key"); v != "41" {
		t.Fatalf("old-key = %q, want 41", v)
	}
}

// TestReplicaFromPrimaryLog is the end-to-end check at the package
// level: run a real durable primary (updates, deletes, cross-shard
// transfers, a checkpoint in the middle), then ship its actual on-disk
// log into two replicas of other shard counts — one from the start of
// the segments, one from the snapshot and the segments past it, the
// way the streamer reads them — and require identical state.
func TestReplicaFromPrimaryLog(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(WithDurability(dir, wal.Batch), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for i, k := range keys {
		if err := p.Update([]string{k, k + "/ctr"}, func(t *Txn) error {
			t.Set(k, []byte(fmt.Sprintf("v%d", i)))
			t.Add(k+"/ctr", int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-shard transfers between counters on distinct shards.
	a, b := keys[0], ""
	for _, k := range keys[1:] {
		if p.ShardOf(k+"/x") != p.ShardOf(a+"/x") {
			b = k
			break
		}
	}
	if b == "" {
		t.Fatal("no cross-shard pair")
	}
	transfer := func(t *Txn) error {
		t.Add(a+"/x", -1)
		t.Add(b+"/x", 1)
		return nil
	}
	for i := 0; i < 10; i++ {
		if err := p.Update([]string{a + "/x", b + "/x"}, transfer); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Update([]string{a + "/x", b + "/x"}, transfer); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Delete(keys[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	apply := func(r *Replica) func(uint64, []byte) error {
		return func(seq uint64, raw []byte) error {
			rec, n, err := wal.DecodeRecord(raw)
			if err != nil || n != len(raw) || rec.Seq != seq {
				return fmt.Errorf("raw bytes of %d: decoded seq %d, %d of %d bytes, %v", seq, rec.Seq, n, len(raw), err)
			}
			return r.ApplyRecords([]wal.Record{rec})
		}
	}
	whole, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Store().Close()
	// Ship twice, to exercise duplicate suppression (reconnect overlap).
	for range 2 {
		if _, err := wal.ScanSegments(dir, 1, apply(whole)); err != nil {
			t.Fatal(err)
		}
	}
	fromSnap, err := NewReplica(WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnap.Store().Close()
	seq, recs, err := wal.LatestSnapshot(dir)
	if err != nil || seq == 0 {
		t.Fatalf("LatestSnapshot: %d, %v", seq, err)
	}
	if err := fromSnap.Reset(seq, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.ScanSegments(dir, seq+1, apply(fromSnap)); err != nil {
		t.Fatal(err)
	}

	// Compare states via a reopened primary.
	p2, err := Open(WithDurability(dir, wal.Batch), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, r := range []*Replica{whole, fromSnap} {
		for _, k := range keys {
			pv, pok := mustGet(t, p2, k)
			rv, rok := mustGet(t, r.Store(), k)
			if pok != rok || pv != rv {
				t.Fatalf("%s: primary %q,%v replica %q,%v", k, pv, pok, rv, rok)
			}
			pc, pok := mustCounter(t, p2, k+"/ctr")
			rc, rok := mustCounter(t, r.Store(), k+"/ctr")
			if pok != rok || pc != rc {
				t.Fatalf("%s/ctr: primary %d,%v replica %d,%v", k, pc, pok, rc, rok)
			}
		}
		for _, k := range []string{a + "/x", b + "/x"} {
			pc, _ := mustCounter(t, p2, k)
			rc, _ := mustCounter(t, r.Store(), k)
			if pc != rc {
				t.Fatalf("%s: primary %d replica %d", k, pc, rc)
			}
		}
		if r.Position() != p2.WALStats().Recover.LSN {
			t.Fatalf("replica at %d, primary at %d", r.Position(), p2.WALStats().Recover.LSN)
		}
	}
	if st := whole.Stats(); st.XApplied == 0 {
		t.Fatal("no cross-shard transactions were shipped")
	}
}

func BenchmarkKVReplicaApply(b *testing.B) {
	r, err := NewReplica(WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Store().Close()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%03d", i)
	}
	val := []byte("0123456789abcdef")
	recs := []wal.Record{{Ops: []wal.Op{{Kind: wal.KindSet}}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs[0].Seq = uint64(i + 1)
		recs[0].Ops[0].Key = keys[i&63]
		recs[0].Ops[0].Val = val
		if err := r.ApplyRecords(recs); err != nil {
			b.Fatal(err)
		}
	}
}
