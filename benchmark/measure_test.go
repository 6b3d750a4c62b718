package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %d", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %d", got)
	}
	// Exact products must not round up a rank: p50 of 4 samples is the 2nd.
	if got := quantile([]int64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("p50 of 4 = %d, want 2", got)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		get  float64
	}{
		{5, 0.99, 0.5},          // nothing is supported: the floor
		{20, 0.99, 0.5},         // 10 beyond the median, 2 beyond p90
		{100, 0.99, 0.9},        // 10 beyond p90, 1 beyond p99
		{999, 0.99, 0.9},        // 9.99 beyond p99
		{1000, 0.99, 0.99},      // exactly 10 beyond p99
		{1_000_000, 0.99, 0.99}, // never above what was asked
		{10_000, 0.999, 0.999},
		{9_000, 0.999, 0.99},
	} {
		if got := supportedQuantile(c.n, c.want); got != c.get {
			t.Errorf("supportedQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.get)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !slices.Equal(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestRecorderSlices(t *testing.T) {
	ms := time.Millisecond
	a := newRecorder(100*ms, 3, 8)
	a.add(10*ms, 16)
	a.sample(10*ms, classRead, 5)
	a.add(90*ms, 16)
	a.sample(90*ms, classWrite, 7)
	// Nothing completes in slice 1; slice 2 gets one op; slice 3 is past
	// a three-slice window.
	a.add(250*ms, 16)
	a.sample(250*ms, classRead, 9)
	a.add(310*ms, 16)
	a.sample(310*ms, classRead, 1000)
	b := newRecorder(100*ms, 3, 8)
	b.add(150*ms, 4)
	b.sample(150*ms, classWrite, 11)

	rates := sliceRates([]*recorder{a, b}, 3)
	if want := []float64{320, 40, 160}; !slices.Equal(rates, want) {
		t.Errorf("slice rates %v, want %v", rates, want)
	}
	if got := a.sliceSamples(classRead, 0); !slices.Equal(got, []int64{5}) {
		t.Errorf("slice 0 reads %v", got)
	}
	if got := a.sliceSamples(classRead, 1); len(got) != 0 {
		t.Errorf("slice 1 reads %v, want none", got)
	}
	if got := a.sliceSamples(classRead, 2); !slices.Equal(got, []int64{9}) {
		t.Errorf("slice 2 reads %v", got)
	}
	// The window's samples leave out slice 3 (the op in flight at the close).
	if got := windowSamples([]*recorder{a, b}, 3, classRead, classWrite); !slices.Equal(got, []int64{5, 7, 9, 11}) {
		t.Errorf("window samples %v", got)
	}
	if got := windowSamples([]*recorder{a, b}, 3, classWrite); !slices.Equal(got, []int64{7, 11}) {
		t.Errorf("window writes %v", got)
	}
	// Throughput is the window's ops over its length, the mean slice rate;
	// latency is read off the whole window's samples.
	run := windowRun{recs: []*recorder{a, b}, slices: 3}
	if got, want := run.rate(), (320.0+40+160)/3; got != want {
		t.Errorf("window rate %v, want %v", got, want)
	}
	if got := run.latency(0.5, classRead, classWrite); got != 7 {
		t.Errorf("window median latency %v, want 7", got)
	}
}

func TestWindowSlices(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		n      int
		slice  time.Duration
	}{
		{10 * time.Second, 10, time.Second},
		{2500 * time.Millisecond, 2, 1250 * time.Millisecond},
		{300 * time.Millisecond, 1, 300 * time.Millisecond},
		{100 * time.Millisecond, 1, 100 * time.Millisecond},
	} {
		if n, slice := windowSlices(c.window); n != c.n || slice != c.slice {
			t.Errorf("windowSlices(%v) = %d x %v, want %d x %v", c.window, n, slice, c.n, c.slice)
		}
	}
}

func TestDueAt(t *testing.T) {
	if got := dueAt(0, 5000); got != 0 {
		t.Errorf("op 0 due at %v", got)
	}
	if got := dueAt(1, 5000); got != 200*time.Microsecond {
		t.Errorf("op 1 at 5000/s due at %v, want 200us", got)
	}
	if got := dueAt(50_000, 5000); got != 10*time.Second {
		t.Errorf("op 50000 at 5000/s due at %v, want 10s", got)
	}
}

func TestPacerTimesFromDue(t *testing.T) {
	// A generator that starts 30ms behind its schedule owes its first ops
	// at once and reports the backlog as lateness; it never sleeps to
	// "catch down".
	p := pacer{start: time.Now().Add(-30 * time.Millisecond), rate: 1000}
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		due, late := p.next()
		if due != time.Duration(i)*time.Millisecond {
			t.Fatalf("op %d due at %v", i, due)
		}
		if late < 20*time.Millisecond {
			t.Fatalf("op %d: %v late, want about 30ms minus %dms", i, late, i)
		}
	}
	if spent := time.Since(t0); spent > 20*time.Millisecond {
		t.Errorf("a late pacer slept: 10 overdue ops took %v", spent)
	}
	// On schedule it waits for the due time and is late only by the
	// sleep's overshoot.
	p = pacer{start: time.Now(), rate: 100}
	p.next()
	due, late := p.next()
	if since := time.Since(p.start); since < due {
		t.Errorf("op sent %v after start, before it was due at %v", since, due)
	}
	if late < 0 || late > 50*time.Millisecond {
		t.Errorf("late by %v", late)
	}
}

func TestSelfShare(t *testing.T) {
	tr := newTracer(time.Now(), 16)
	// One request of 100ns whose single child covers 60.
	r := tr.begin(spanGenOp, 0, 1)
	tr.add(spanKVSet, 20, 80, r, 1)
	tr.finish(r, 100)
	// One batch of 100ns whose children overlap: [10,50] and [10,90]
	// cover 80 between them, not 120.
	r = tr.begin(spanGenOp, 1000, 2)
	tr.add(spanServerGet, 1010, 1050, r, 2)
	tr.add(spanServerSet, 1010, 1090, r, 2)
	tr.finish(r, 1100)
	if got, want := selfShare([]*tracer{tr}, spanGenOp), float64(40+20)/200; got != want {
		t.Errorf("self share %v, want %v", got, want)
	}
	if got := spanDurations([]*tracer{tr}, spanServerSet); !slices.Equal(got, []int64{80}) {
		t.Errorf("durations %v", got)
	}
	full := newTracer(time.Now(), 1)
	full.add(spanKVGet, 0, 1, -1, 0)
	if idx := full.add(spanKVGet, 1, 2, -1, 0); idx != -1 || full.dropped != 1 || len(full.spans) != 1 {
		t.Errorf("a full buffer grew or lost count: idx %d dropped %d len %d", idx, full.dropped, len(full.spans))
	}
}

func TestCrashCopyKeepsSyncedPrefix(t *testing.T) {
	src, dst := filepath.Join(t.TempDir(), "src"), filepath.Join(t.TempDir(), "dst")
	if err := os.MkdirAll(filepath.Join(src, "000"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(src, "000", "old.wal")
	if err := os.WriteFile(old, []byte("written before the seam"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfs := newCrashFS(0)
	f, err := cfs.OpenFile(filepath.Join(src, "000", "seg.wal"), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Write([]byte("synced."))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("page cache only"))
	if err := cfs.crashCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "000", "seg.wal"))
	if err != nil || string(got) != "synced." {
		t.Errorf("crash copy of a half-synced file: %q, %v", got, err)
	}
	got, err = os.ReadFile(filepath.Join(dst, "000", "old.wal"))
	if err != nil || string(got) != "written before the seam" {
		t.Errorf("crash copy of an untracked file: %q, %v", got, err)
	}
	if n := cfs.written.Load(); n != int64(len("synced.page cache only")) {
		t.Errorf("bytes written through the seam: %d", n)
	}
}

func TestValueForms(t *testing.T) {
	v := newValue()
	stamp(v, 0xfeedface, 7, 99)
	if valueSum(v) != 0xfeedface || valueVer(v) != 7 || valueWord(v) != 99 || len(v) != valueLen {
		t.Errorf("binary value round trip: %x %d %d", valueSum(v), valueVer(v), valueWord(v))
	}
	if valueSum(v[:10]) != 0 {
		t.Error("a short value has a checksum")
	}
	txt := appendTextValue(nil, 0xfeedface, 7)
	if len(txt) != valueLen || textValueSum(txt) != 0xfeedface {
		t.Errorf("text value round trip: len %d sum %x", len(txt), textValueSum(txt))
	}
	for _, c := range txt {
		if c == '\n' || c == ' ' {
			t.Fatalf("text value holds %q: the line protocol would split it", c)
		}
	}
	if textValueSum([]byte("VALUE 12")) != 0 {
		t.Error("a malformed text value has a checksum")
	}
}

func TestRingIsAFunctionOfTheSeed(t *testing.T) {
	ks := newKeyspace(512, 64, 64)
	spec := ringSpec{mix: []mixEntry{{opGet, 50}, {opSet, 20}, {opMGet, 10}, {opCounterAdd, 10}, {opTransfer, 10}},
		zipfS: 1.1, nkeys: 512, mgetN: 4, length: 1 << 10}
	a, b, c := newRing(7, 0, ks, spec), newRing(7, 0, ks, spec), newRing(8, 0, ks, spec)
	if !slices.Equal(a.ops, b.ops) || !slices.Equal(a.multi, b.multi) {
		t.Error("the same seed drew different rings")
	}
	if slices.Equal(a.ops, c.ops) {
		t.Error("different seeds drew the same ring")
	}
	if other := newRing(7, 1, ks, spec); slices.Equal(a.ops, other.ops) {
		t.Error("two clients of one run drew the same ring")
	}
	for _, o := range a.ops {
		if o.code == opTransfer && ks.acctShard[o.a] == ks.acctShard[o.b] {
			t.Fatalf("transfer %d -> %d stays on shard %d", o.a, o.b, ks.acctShard[o.a])
		}
	}
}
