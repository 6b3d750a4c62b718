package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names with the same units; smoke_test.go holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports from an untraced run.
// The driver holds each to a regression bound on every workload, so the
// list is limited to what all six workloads can measure and never read
// zero; the workload-specific candidates (recover_s, write_amp,
// catchup_records_per_s, repl_lag_*) and fail_ratio, which is zero on a
// healthy run, are reported from the traced run instead — as are the p99s,
// which spread further between runs of one commit than any bound the
// driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of the traced run. A workload that does not
// drive a layer reports that layer's counters as 0.
var perLayer = []metricDef{
	// Workload-level numbers that only some workloads have.
	{"fail_ratio", "ratio"},
	{"recover_s", "s"},
	{"write_amp", "ratio"},
	{"catchup_records_per_s", "1/s"},
	{"repl_lag_p50_ms", "ms"},
	{"repl_lag_p99_ms", "ms"},
	// Candidates that spread too far between runs to carry a bound.
	{"op_p99_us", "us"},
	{"read_p99_us", "us"},
	{"write_p99_us", "us"},

	{"server.rtt_self_us", "us"},
	{"server.cpu_us_per_op", "us"},
	{"server.syscalls_per_op", "count"},
	{"server.bytes_in_per_op", "B"},
	{"server.bytes_out_per_op", "B"},
	{"server.conn_setup_us", "us"},
	{"server.get_p50_us", "us"},
	{"server.set_p50_us", "us"},
	{"server.mget4_p50_us", "us"},
	{"server.txn2_p50_us", "us"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"server.rss_mb", "MB"},

	{"kv.fastget_p50_ns", "ns"},
	{"kv.get_p50_ns", "ns"},
	{"kv.mget8_p50_ns", "ns"},
	{"kv.set_p50_ns", "ns"},
	{"kv.counteradd_p50_ns", "ns"},
	{"kv.update2_p50_ns", "ns"},
	{"kv.view256_p50_us", "us"},
	{"kv.view256_p99_us", "us"},
	{"kv.self_ns_per_set", "ns"},
	{"kv.allocs_per_op", "count"},
	{"kv.alloc_bytes_per_op", "B"},
	{"kv.gc_pause_total_ms", "ms"},
	{"kv.heap_bytes_per_user_byte", "ratio"},
	{"kv.load_keys_per_s", "1/s"},
	{"kv.fast_gets", "count"},
	{"kv.read_only_commits", "count"},
	{"kv.multi_commits", "count"},

	{"stm.commits", "count"},
	{"stm.conflicts", "count"},
	{"stm.conflict_ratio", "ratio"},
	{"stm.user_aborts", "count"},
	{"stm.attempts_p99", "count"},
	{"stm.commit_p50_ns", "ns"},
	{"stm.readonly_p50_ns", "ns"},
	{"stm.park_p50_us", "us"},
	{"stm.waits", "count"},
	{"stm.wakeups", "count"},
	{"stm.spurious_wakeups", "count"},
	{"stm.probe_atomically_1w_ns", "ns"},
	{"stm.probe_read4_ns", "ns"},
	{"stm.probe_multi2_ns", "ns"},

	{"wal.appends", "count"},
	{"wal.batches", "count"},
	{"wal.fsyncs", "count"},
	{"wal.bytes", "B"},
	{"wal.records_per_fsync", "ratio"},
	{"wal.bytes_per_record", "B"},
	{"wal.append_p50_ns", "ns"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.rotations", "count"},
	{"wal.checkpoints", "count"},
	{"wal.txn_markers", "count"},
	{"wal.shed_writes", "count"},
	{"wal.recover_records", "count"},
	{"wal.recover_records_per_s", "1/s"},
	{"wal.disk_bytes_per_user_byte", "ratio"},
	{"wal.probe_encode_ns", "ns"},
	{"wal.probe_decode_ns", "ns"},

	{"cluster.catchup_s", "s"},
	{"cluster.records_streamed", "count"},
	{"cluster.snapshots_sent", "count"},
	{"cluster.connects", "count"},
	{"cluster.applied", "count"},
	{"cluster.xapplied", "count"},
	{"cluster.pending_max", "count"},
	{"cluster.wire_bytes_per_record", "B"},
	{"cluster.probe_frame_ns", "ns"},
	{"cluster.apply_ns_per_record", "ns"},

	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.dropped", "count"},
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	traced    bool
	attempted int64 // ops issued plus correctness checks made
	failed    int64 // ops that errored or were refused, plus checks that failed
	failures  []string
	samples   int // latency samples behind the percentiles
	values    map[string]float64
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: map[string]float64{}}
}

// set records a metric. A ratio over nothing measured (NaN, Inf) is
// recorded as 0, which JSON can carry and validate rejects where it
// matters.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// check counts one correctness check; a failed one is kept (the first
// few in words) and turns into fail_ratio and a non-zero exit.
func (r *result) check(ok bool, format string, args ...any) {
	bad := int64(0)
	if !ok {
		bad = 1
	}
	r.checkN(1, bad, format, args...)
}

// checkN counts n checks of which bad failed.
func (r *result) checkN(n, bad int64, format string, args ...any) {
	r.attempted += n
	r.failed += bad
	if bad > 0 && len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// finish records what every workload records last: the memory peak of
// the process under test on an untraced run, the failure ratio (which
// the untraced run carries as its failed/attempted pair) on a traced one.
func (r *result) finish(peakMB float64) {
	if r.traced {
		r.set("fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	} else {
		r.set("rss_peak_mb", peakMB)
	}
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// validate reports what is wrong with the result as a measurement: a
// metric outside the run's list, or an end-to-end metric missing or not
// positive (the driver compares ratios of them).
func (r *result) validate() error {
	known := map[string]bool{}
	for _, d := range r.defs() {
		known[d.name] = true
		if v, ok := r.values[d.name]; !r.traced && (!ok || !(v > 0)) {
			return fmt.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", r.workload, d.name, v, ok)
		}
	}
	for name := range r.values {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not in the run's metric list", r.workload, name)
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", r.workload)
	}
	return nil
}

// print lists every metric of the run by name with its unit.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s; attempted %d, failed %d, latency samples %d\n",
		r.workload, kind, r.attempted, r.failed, r.samples)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report folds results into the one JSON object the run ends with. With
// a single result the metric names are bare; with several (-workload
// all, or a traced run beside an untraced one) they are prefixed
// "<workload>/".
func report(results []*result) reportJSON {
	rep := reportJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range results {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, d := range r.defs() {
			name := d.name
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			rep.Metrics[name] = metricJSON{r.values[d.name], d.unit}
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

func (rep reportJSON) line() string {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}
