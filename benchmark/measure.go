package main

import (
	"slices"
	"time"
)

// Measurement core: exact-sample latency recording in fixed time
// slices, per-slice throughput, the percentile guard, and the open-loop
// pacer arithmetic. Nothing here rounds into buckets: every sample is
// kept as measured and percentiles are read off the sorted samples.

// Op classes a latency sample is filed under.
const (
	classRead = iota
	classWrite
	numClasses
)

// recorder collects one goroutine's completed-op counts and latency
// samples, filed by the time slice the op completed in. It is written
// by one goroutine and read only after that goroutine has stopped.
type recorder struct {
	slice time.Duration
	ops   []int64             // completed ops per slice
	lat   [numClasses][]int64 // sampled latencies (ns) in completion order
	cut   [numClasses][]int   // cut[c][s] = len(lat[c]) when slice s closed
}

func newRecorder(slice time.Duration, slices, samplesPerClass int) *recorder {
	r := &recorder{slice: slice, ops: make([]int64, 0, slices+2)}
	for c := range r.lat {
		r.lat[c] = make([]int64, 0, samplesPerClass)
		r.cut[c] = make([]int, 0, slices+2)
	}
	return r
}

// advance opens slices up to and including the one holding offset at
// (time since the window started) and returns its index.
func (r *recorder) advance(at time.Duration) int {
	s := 0
	if at > 0 {
		s = int(at / r.slice)
	}
	for len(r.ops) <= s {
		if len(r.ops) > 0 {
			for c := range r.cut {
				r.cut[c] = append(r.cut[c], len(r.lat[c]))
			}
		}
		r.ops = append(r.ops, 0)
	}
	return s
}

// add counts n ops completed at offset at.
func (r *recorder) add(at time.Duration, n int64) {
	r.ops[r.advance(at)] += n
}

// sample files one latency under class, completed at offset at.
func (r *recorder) sample(at time.Duration, class int, ns int64) {
	r.advance(at)
	r.lat[class] = append(r.lat[class], ns)
}

// sliceLen is how long a time slice is, near enough: a window is cut into
// a whole number of them. Ops that complete past the last slice were in
// flight when the window closed and count for nothing.
const sliceLen = time.Second

// windowSlices cuts a window into whole slices of about sliceLen.
func windowSlices(window time.Duration) (n int, slice time.Duration) {
	n = max(1, int(window/sliceLen))
	return n, window / time.Duration(n)
}

// sliceSamples returns the class's samples that completed in slice s.
func (r *recorder) sliceSamples(class, s int) []int64 {
	if s >= len(r.ops) {
		return nil
	}
	lo, hi := 0, len(r.lat[class])
	if s > 0 {
		lo = r.cut[class][s-1]
	}
	if s < len(r.cut[class]) {
		hi = r.cut[class][s]
	}
	return r.lat[class][lo:hi]
}

// sliceRates merges the recorders and returns the completed-op rate
// (ops/s) of each of the first n slices. Slices past n hold the ops that
// were in flight when the window closed and are not part of it.
func sliceRates(recs []*recorder, n int) []float64 {
	rates := make([]float64, n)
	for _, r := range recs {
		for s := 0; s < n && s < len(r.ops); s++ {
			rates[s] += float64(r.ops[s]) / r.slice.Seconds()
		}
	}
	return rates
}

// windowSamples merges the recorders' samples of the given classes over
// the first n slices and returns them sorted.
func windowSamples(recs []*recorder, n int, classes ...int) []int64 {
	var out []int64
	for _, r := range recs {
		for _, c := range classes {
			for s := 0; s < n; s++ {
				out = append(out, r.sliceSamples(c, s)...)
			}
		}
	}
	slices.Sort(out)
	return out
}

// median returns the middle value of vs (mean of the two middle values
// when len is even), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile reads the q-quantile (0 < q < 1) off sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. Empty input gives 0.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n) + 0.999999999) // ceil without float drift on exact products
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailSupport is how many samples must lie beyond a reported percentile.
const tailSupport = 10

// supportedQuantile lowers want to the highest percentile on the ladder
// p50, p90, p99, p99.9 that still has tailSupport samples beyond it in a
// sample of size n. With fewer than 2*tailSupport samples even the
// median is unsupported and 0.5 is returned regardless: there is nothing
// lower to fall back to.
func supportedQuantile(n int, want float64) float64 {
	best := 0.5
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if q > want {
			break
		}
		if float64(n)*(1-q) >= tailSupport-1e-9 { // 100*(1-0.9) is 9.999999999999998
			best = q
		}
	}
	return best
}

// guardedQuantile is quantile at the percentile supportedQuantile allows.
func guardedQuantile(sorted []int64, want float64) int64 {
	return quantile(sorted, supportedQuantile(len(sorted), want))
}

// dueAt is when an open-loop generator sending rate ops/s owes op i
// (0-based), as an offset from its start. Latency of an open-loop op is
// timed from this instant, not from when the generator got around to
// sending it, so a stall charges every op it delayed.
func dueAt(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// pacer walks an open-loop schedule. next waits until the next op is due
// and returns its due offset and how late the generator is in sending
// it: the sleep's overshoot, or the whole backlog after a stall.
type pacer struct {
	start time.Time
	rate  float64
	i     int64
}

func (p *pacer) next() (due, late time.Duration) {
	due = dueAt(p.i, p.rate)
	p.i++
	now := time.Since(p.start)
	if now < due {
		time.Sleep(due - now)
		now = time.Since(p.start)
	}
	return due, now - due
}
