package kv

import (
	"fmt"
	"math/rand"
	"runtime"
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
// against every registered engine: a stream of cross-shard transfers
// between two counters whose sum is invariant, fed in batches of random
// size. Concurrent transactional readers must never see the sum
// mid-transfer — a cross-shard transaction is one record and surfaces
// atomically.
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

// writePrimaryLog runs a real durable primary in dir (updates, deletes,
// cross-shard transfers, a key set, deleted and re-created as a
// counter, a checkpoint in the middle) and closes it, leaving its
// on-disk log.
func writePrimaryLog(t *testing.T, dir string) {
	t.Helper()
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
	// A bytes key deleted and re-created as a counter.
	if err := p.Set("reborn", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Delete("reborn"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CounterAdd("reborn", 42); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeState is every present key of s with its kind and value; a
// read that fails shows as its error.
func storeState(s *Store) map[string]string {
	out := make(map[string]string)
	for _, sh := range s.shards {
		for e := range sh.each {
			var v string
			var ok bool
			var err error
			if e.isCounter() {
				var n int64
				n, ok, err = s.CounterGet(e.key)
				v = fmt.Sprintf("counter %d", n)
			} else {
				var b []byte
				b, ok, err = s.Get(e.key)
				v = "bytes " + string(b)
			}
			if err != nil {
				v, ok = err.Error(), true
			}
			if ok {
				out[e.key] = v
			}
		}
	}
	return out
}

// sameState fails t unless got holds exactly want's keys and values.
func sameState(t *testing.T, name string, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: %s = %q, %v; want %q", name, k, g, ok, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: %s = %q, want no such key", name, k, g)
		}
	}
}

// applyRaw feeds one scanned record to r.
func applyRaw(r *Replica) func(uint64, []byte) error {
	return func(seq uint64, raw []byte) error {
		rec, n, err := wal.DecodeRecord(raw)
		if err != nil || n != len(raw) || rec.Seq != seq {
			return fmt.Errorf("raw bytes of %d: decoded seq %d, %d of %d bytes, %v", seq, rec.Seq, n, len(raw), err)
		}
		return r.ApplyRecords([]wal.Record{rec})
	}
}

// TestReplicaFromPrimaryLog is the end-to-end check at the package
// level: ship a real primary's on-disk log into two replicas of other
// shard counts — one from the start of the segments, one from the
// snapshot and the segments past it, the way the streamer reads them
// — and require each to hold, key for key, what the primary recovers.
func TestReplicaFromPrimaryLog(t *testing.T) {
	dir := t.TempDir()
	writePrimaryLog(t, dir)

	whole, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Store().Close()
	// Ship twice, to exercise duplicate suppression (reconnect overlap).
	for range 2 {
		if _, err := wal.ScanSegments(dir, 1, applyRaw(whole)); err != nil {
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
	if _, err := wal.ScanSegments(dir, seq+1, applyRaw(fromSnap)); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(WithDurability(dir, wal.Batch), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	want := storeState(p2)
	if want["reborn"] != "counter 42" || len(want) != 34 {
		t.Fatalf("recovered %d keys, reborn %q", len(want), want["reborn"])
	}
	for name, r := range map[string]*Replica{"whole": whole, "fromSnap": fromSnap} {
		sameState(t, name, storeState(r.Store()), want)
		if r.Position() != p2.WALStats().Recover.LSN {
			t.Fatalf("%s at %d, primary at %d", name, r.Position(), p2.WALStats().Recover.LSN)
		}
	}
	if st := whole.Stats(); st.XApplied == 0 {
		t.Fatal("no cross-shard transactions were shipped")
	}
}

// TestReplicaSyncMatchesRecovery feeds TestReplicaFromPrimaryLog's
// primary log record by record into a replica given its target first. It must sync throughout — not
// serving, Position below the target — and the record that reaches the
// target must install exactly what recovery installs from the same
// directory. A reader that waits for Position to reach the target then
// finds every record there: the install comes before the position.
func TestReplicaSyncMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	writePrimaryLog(t, dir)
	p2, err := Open(WithDurability(dir, wal.Batch), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	want := storeState(p2)
	target := p2.WALStats().Recover.LSN
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica(WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	r.SetTarget(target)
	if !r.Syncing() || r.Ready() {
		t.Fatalf("empty replica behind its target: syncing %v, ready %v", r.Syncing(), r.Ready())
	}
	seen := make(chan map[string]string)
	go func() {
		for r.Position() < target {
			runtime.Gosched()
		}
		seen <- storeState(r.Store())
	}()
	apply := applyRaw(r)
	if _, err := wal.ScanSegments(dir, 1, func(seq uint64, raw []byte) error {
		if !r.Syncing() || r.Position() >= target || r.Ready() {
			return fmt.Errorf("before record %d of %d: syncing %v, position %d, ready %v",
				seq, target, r.Syncing(), r.Position(), r.Ready())
		}
		if n := r.Store().Len(); n != 0 {
			return fmt.Errorf("before record %d of %d: %d keys visible", seq, target, n)
		}
		return apply(seq, raw)
	}); err != nil {
		t.Fatal(err)
	}
	if r.Syncing() || !r.Ready() || r.Position() != target {
		t.Fatalf("after the last record: syncing %v, ready %v, position %d of %d",
			r.Syncing(), r.Ready(), r.Position(), target)
	}
	sameState(t, "the watcher's", <-seen, want)
	sameState(t, "synced", storeState(r.Store()), want)
	if st := r.Stats(); st.Applied != target || st.XApplied == 0 {
		t.Fatalf("stats %+v: want %d applied, some cross-shard", st, target)
	}
}

// TestReplicaResetDuringSync: a snapshot that arrives while a replica
// syncs replaces what it had folded. Keys folded before the Reset that
// the snapshot lacks are absent once the replica installs; the records
// after the snapshot apply on top of it.
func TestReplicaResetDuringSync(t *testing.T) {
	r, err := NewReplica(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	r.SetTarget(10)
	f := newFeeder(t, r)
	f.set("folded-only", "lost")
	f.set("both", "old")
	f.xfer("acct-a", "acct-b", 1, 2)
	if !r.Syncing() || r.Position() != 3 {
		t.Fatalf("syncing %v at %d, want syncing at 3", r.Syncing(), r.Position())
	}
	snap := []wal.Record{
		{Seq: 7, Ops: []wal.Op{{Kind: wal.KindSet, Key: "both", Val: []byte("snap")}}},
		{Seq: 8, Ops: []wal.Op{{Kind: wal.KindCounterSet, Key: "acct-a", N: 5}}},
	}
	if err := r.Reset(8, snap); err != nil {
		t.Fatal(err)
	}
	if !r.Syncing() || r.Position() != 8 {
		t.Fatalf("after a Reset short of the target: syncing %v at %d", r.Syncing(), r.Position())
	}
	f.lsn = 8
	f.set("tail", "9")
	f.emit(wal.Op{Kind: wal.KindCounterAdd, Key: "acct-a", N: 2})
	if r.Syncing() || !r.Ready() {
		t.Fatalf("at the target: syncing %v, ready %v", r.Syncing(), r.Ready())
	}
	sameState(t, "reset during sync", storeState(r.Store()), map[string]string{
		"both":   "bytes snap",
		"acct-a": "counter 7",
		"tail":   "bytes 9",
	})
	// Live from here: the next record is one transaction.
	f.set("tail", "11")
	if v, _ := mustGet(t, r.Store(), "tail"); v != "11" || r.Syncing() {
		t.Fatalf("live apply: tail %q, syncing %v", v, r.Syncing())
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
