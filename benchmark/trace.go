package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// Tracing, from the benchmark's side only: one span per call into a
// layer, recorded by the goroutine that made the call into its own
// preallocated buffer, and written out when the run ends. Spans of one
// request share req; parent is the index, in the same buffer, of the
// span that caused this one (-1 for a request's root). Spans inside the
// program under test are a later change.

// Span names. The prefix is the layer the call went into; "gen" spans
// are the load generator's own request envelopes and probe batches.
const (
	spanGenOp = iota // one request, from decoding the op to checking its result
	spanKVFastGet
	spanKVGet
	spanKVMGet
	spanKVSet
	spanKVCounterAdd
	spanKVUpdate
	spanKVView
	spanServerGet // wire: request bytes flushed -> reply parsed, by verb
	spanServerFGet
	spanServerSet
	spanServerAdd
	spanServerMGet
	spanServerTxn
	spanClusterLag // replica: write due -> visible on the replica
	spanGenLate    // open loop: due -> actually sent
	spanProbeStm1W // probes: one span per batch of calls
	spanProbeStmRead4
	spanProbeStmMulti2
	spanProbeWalEncode
	spanProbeWalDecode
	spanProbeFrame
	spanProbeApply
	numSpanNames

	numProbes = numSpanNames - spanProbeStm1W
)

var spanNames = [numSpanNames]string{
	"gen.op",
	"kv.FastGet", "kv.Get", "kv.MGet", "kv.Set", "kv.CounterAdd", "kv.Update", "kv.View",
	"server.GET", "server.FGET", "server.SET", "server.ADD", "server.MGET", "server.TXN",
	"cluster.lag", "gen.late",
	"stm.probe_atomically_1w", "stm.probe_read4", "stm.probe_multi2",
	"wal.probe_encode", "wal.probe_decode", "cluster.probe_frame", "cluster.probe_apply",
}

type span struct {
	start, end int64 // ns since the trace epoch
	req        uint32
	parent     int32
	name       uint16
}

// tracer is one goroutine's span buffer. A nil *tracer records nothing,
// so call sites read the same traced or not.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index, or -1 when the
// buffer is full (the span is counted as dropped; the buffer never
// grows inside a timed window).
func (t *tracer) add(name uint16, start, end int64, parent int32, req uint32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start, end, req, parent, name})
	return int32(len(t.spans) - 1)
}

// begin opens a root span whose end is set by finish, so that children
// recorded in between can name it as parent.
func (t *tracer) begin(name uint16, start int64, req uint32) int32 {
	return t.add(name, start, 0, -1, req)
}

func (t *tracer) finish(idx int32, end int64) {
	if idx >= 0 {
		t.spans[idx].end = end
	}
}

// spanDurations returns the sorted durations of every span called name.
func spanDurations(trs []*tracer, name uint16) []int64 {
	var out []int64
	for _, t := range trs {
		for i := range t.spans {
			if s := &t.spans[i]; s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	slices.Sort(out)
	return out
}

// selfShare is the share of the root spans' time that no child span
// covers: what the layer recording the roots spent itself. Children
// follow their root in the buffer (same goroutine) and may overlap one
// another, so coverage is the union of their intervals.
func selfShare(trs []*tracer, root uint16) float64 {
	var total, covered int64
	for _, t := range trs {
		for i := 0; i < len(t.spans); i++ {
			r := &t.spans[i]
			if r.name != root || r.parent != -1 {
				continue
			}
			total += r.end - r.start
			edge := r.start // children are recorded in end order; starts never precede the root
			for j := i + 1; j < len(t.spans) && t.spans[j].parent == int32(i); j++ {
				c := &t.spans[j]
				lo := max(c.start, edge)
				if c.end > lo {
					covered += c.end - lo
					edge = c.end
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

// traceMetrics fills the numbers about the measurement itself: the share
// of the request spans that no layer span covers (the generator's own
// time), what tracing cost in throughput, and how many spans were kept
// and dropped.
func (r *result) traceMetrics(trs []*tracer, tracedRate, untracedRate float64) {
	var spans, dropped int64
	for _, t := range trs {
		spans += int64(len(t.spans))
		dropped += t.dropped
	}
	r.set("gen.cpu_share", selfShare(trs, spanGenOp))
	r.set("trace.overhead_ratio", ratio(tracedRate, untracedRate))
	r.set("trace.spans", float64(spans))
	r.set("trace.dropped", float64(dropped))
}

// writeSpans writes every buffer as CSV, one span per line.
func writeSpans(path string, trs []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "buffer,index,name,start_ns,end_ns,parent,req")
	for b, t := range trs {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", b, i, spanNames[s.name], s.start, s.end, s.parent, s.req)
		}
	}
	return w.Flush()
}
