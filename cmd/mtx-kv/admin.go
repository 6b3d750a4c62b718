// The admin plane: an HTTP listener (opt-in via serve -admin) exposing
// the store's observability surface for operators and scrapers, plus the
// JSON-emitting STATS wire subcommands shared with the line protocol.
//
//	/metrics      Prometheus text format (op/STM latency histograms,
//	              cumulative counters, WAL/changefeed durability
//	              counters, hot-key contention gauges)
//	/debug/vars   expvar JSON (the same data, one document)
//	/debug/pprof  the standard Go profiler endpoints
//	/healthz      liveness ("ok")
//
// The admin plane is read-only (RESET is deliberately wire-protocol
// only) and shares nothing with the data path beyond the store's
// snapshot methods, so a scrape cannot slow a transaction down.
package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"modtx/internal/kv"
	"modtx/internal/obs"
)

// adminMux builds the admin-plane handler for one store. It is a
// separate function (rather than inlined into runServe) so loopback
// tests can mount it on httptest servers.
func adminMux(store *kv.Store) *http.ServeMux {
	return adminMuxFor(&server{store: store})
}

// adminMuxFor is adminMux with the server's replication role attached,
// so /metrics includes the streamer or replica gauges when one exists.
func adminMuxFor(srv *server) *http.ServeMux {
	store := srv.store
	publishExpvars(store)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded is a health failure even when the store still serves
		// (shed-durability): orchestrators should rotate traffic away and
		// operators should page. The body names the cause.
		if deg, err := store.Degraded(); deg {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: %v\n", err)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(renderServerMetrics(renderReplMetrics(renderMetrics(store), srv), srv))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// net/http/pprof registers on http.DefaultServeMux as an import side
	// effect; mount the handlers explicitly so the admin mux works
	// standalone and nothing else in the process leaks endpoints here.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// expvar publication: Publish panics on duplicate names, but tests (and
// in principle future multi-store processes) build several muxes per
// process. The published Func therefore reads through an atomic pointer
// that adminMux retargets at the most recent store.
var (
	expvarOnce  sync.Once
	expvarStore atomic.Pointer[kv.Store]
)

func publishExpvars(store *kv.Store) {
	expvarStore.Store(store)
	expvarOnce.Do(func() {
		expvar.Publish("mtxkv", expvar.Func(func() any {
			s := expvarStore.Load()
			if s == nil {
				return nil
			}
			return map[string]any{
				"stats":     s.Stats(),
				"shards":    s.ShardStats(),
				"latencies": histReportFor(s),
				"hot_keys":  hotKeysFor(s),
				"wal":       s.WALStats(),
			}
		}))
	})
}

// histReport is the machine-readable latency document: one snapshot per
// instrumented store operation plus the merged STM-level distributions.
// It backs both STATS HIST and the expvar tree.
type histReport struct {
	Ops map[string]obs.Snapshot `json:"ops"`
	Stm kv.StmLatencies         `json:"stm"`
}

func histReportFor(s *kv.Store) histReport {
	r := histReport{Ops: make(map[string]obs.Snapshot, len(kv.Ops())), Stm: s.StmLatencies()}
	for _, op := range kv.Ops() {
		r.Ops[op.String()] = s.OpLatency(op)
	}
	return r
}

// hotKeysFor bounds the wire/scrape hot-key profile and never returns
// nil, so disabled-metrics stores marshal as [] rather than null.
func hotKeysFor(s *kv.Store) []kv.HotKey {
	hot := s.HotKeys(16)
	if hot == nil {
		hot = []kv.HotKey{}
	}
	return hot
}

// appendStatsJSON marshals v onto the reply buffer for the STATS wire
// subcommands. json.Marshal output is newline-free, so the reply stays a
// single protocol line.
func appendStatsJSON(reply []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return appendErr(reply, "marshal: ", err)
	}
	return append(reply, b...)
}

// renderMetrics produces the Prometheus text exposition of the store:
// latency histograms with cumulative le buckets, the cumulative
// transaction counters, and the hot-key contention profile.
func renderMetrics(s *kv.Store) []byte {
	b := make([]byte, 0, 8192)

	b = append(b, "# HELP mtxkv_op_latency_ns Sampled store operation latency in nanoseconds.\n"...)
	b = append(b, "# TYPE mtxkv_op_latency_ns histogram\n"...)
	for _, op := range kv.Ops() {
		b = appendPromHist(b, "mtxkv_op_latency_ns", `op="`+op.String()+`"`, s.OpLatency(op))
	}

	lat := s.StmLatencies()
	b = append(b, "# HELP mtxkv_stm_latency_ns Sampled STM-level latency in nanoseconds by kind (commit, read_only, park).\n"...)
	b = append(b, "# TYPE mtxkv_stm_latency_ns histogram\n"...)
	b = appendPromHist(b, "mtxkv_stm_latency_ns", `kind="commit"`, lat.CommitNs)
	b = appendPromHist(b, "mtxkv_stm_latency_ns", `kind="read_only"`, lat.ReadOnlyNs)
	b = appendPromHist(b, "mtxkv_stm_latency_ns", `kind="park"`, lat.ParkNs)
	b = append(b, "# HELP mtxkv_stm_txn_attempts Attempts per sampled committed transaction.\n"...)
	b = append(b, "# TYPE mtxkv_stm_txn_attempts histogram\n"...)
	b = appendPromHist(b, "mtxkv_stm_txn_attempts", "", lat.Attempts)

	st := s.Stats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"mtxkv_fast_gets_total", "Lock-free plain reads served.", st.FastGets},
		{"mtxkv_commits_total", "Committed read-write transactions.", st.Commits},
		{"mtxkv_conflicts_total", "Conflicted transaction attempts.", st.Conflicts},
		{"mtxkv_user_aborts_total", "Transactions aborted by user error.", st.UserAborts},
		{"mtxkv_multi_commits_total", "Committed cross-shard transactions.", st.MultiCommits},
		{"mtxkv_read_only_commits_total", "Read-only snapshots that validated.", st.ReadOnlyCommits},
		{"mtxkv_quiesces_total", "Privatization quiescence fences.", st.Quiesces},
		{"mtxkv_waits_total", "Transactions parked on commit notification.", st.Waits},
		{"mtxkv_wakeups_total", "Parked transactions woken by commits.", st.Wakeups},
		{"mtxkv_spurious_wakeups_total", "Wakeups whose recheck went back to sleep.", st.SpuriousWakeups},
	} {
		b = append(b, "# HELP "+c.name+" "+c.help+"\n"...)
		b = append(b, "# TYPE "+c.name+" counter\n"...)
		b = append(b, c.name+" "...)
		b = strconv.AppendUint(b, c.v, 10)
		b = append(b, '\n')
	}

	b = append(b, "# HELP mtxkv_shards Shard count.\n# TYPE mtxkv_shards gauge\nmtxkv_shards "...)
	b = strconv.AppendInt(b, int64(st.Shards), 10)
	b = append(b, "\n# HELP mtxkv_keys Resident keys.\n# TYPE mtxkv_keys gauge\nmtxkv_keys "...)
	b = strconv.AppendInt(b, int64(st.Keys), 10)
	b = append(b, '\n')

	// Durability + changefeed. All of this renders (as zeros and a
	// level of "off") on a non-durable store, so dashboards need no
	// conditional scrape config.
	ws := s.WALStats()
	b = append(b, "# HELP mtxkv_wal_append_ns WAL record append (encode + buffer) latency in nanoseconds.\n"...)
	b = append(b, "# TYPE mtxkv_wal_append_ns histogram\n"...)
	b = appendPromHist(b, "mtxkv_wal_append_ns", "", ws.AppendNs)
	b = append(b, "# HELP mtxkv_wal_fsync_ns WAL group-commit write+fsync latency in nanoseconds.\n"...)
	b = append(b, "# TYPE mtxkv_wal_fsync_ns histogram\n"...)
	b = appendPromHist(b, "mtxkv_wal_fsync_ns", "", ws.FsyncNs)
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"mtxkv_wal_appends_total", "WAL records appended.", ws.Appends},
		{"mtxkv_wal_batches_total", "WAL group-commit batches drained.", ws.Batches},
		{"mtxkv_wal_fsyncs_total", "WAL fsync calls.", ws.Fsyncs},
		{"mtxkv_wal_bytes_total", "WAL bytes written.", ws.Bytes},
		{"mtxkv_wal_rotations_total", "WAL segment rotations.", ws.Rotations},
		{"mtxkv_wal_truncations_total", "Torn WAL tails repaired during recovery.", ws.Truncations},
		{"mtxkv_wal_checkpoints_total", "Snapshot checkpoints taken.", ws.Checkpoints},
		{"mtxkv_changefeed_dropped_total", "Changefeed events dropped on slow subscribers.", ws.ChangefeedDropped},
	} {
		b = append(b, "# HELP "+c.name+" "+c.help+"\n"...)
		b = append(b, "# TYPE "+c.name+" counter\n"...)
		b = append(b, c.name+" "...)
		b = strconv.AppendUint(b, c.v, 10)
		b = append(b, '\n')
	}
	b = append(b, "# HELP mtxkv_changefeed_subscribers Registered changefeed subscriptions.\n"...)
	b = append(b, "# TYPE mtxkv_changefeed_subscribers gauge\nmtxkv_changefeed_subscribers "...)
	b = strconv.AppendInt(b, int64(ws.Subscribers), 10)
	b = append(b, "\n# HELP mtxkv_wal_level Durability level as an info gauge (1 = active level).\n"...)
	b = append(b, "# TYPE mtxkv_wal_level gauge\nmtxkv_wal_level{level=\""+ws.Level+"\"} 1\n"...)

	b = append(b, "# HELP mtxkv_hot_key_conflicts Approximate conflicts attributed to the hottest keys.\n"...)
	b = append(b, "# TYPE mtxkv_hot_key_conflicts gauge\n"...)
	for _, h := range hotKeysFor(s) {
		b = append(b, `mtxkv_hot_key_conflicts{key="`...)
		b = appendEscapedLabel(b, h.Key)
		b = append(b, `",shard="`...)
		b = strconv.AppendInt(b, int64(h.Shard), 10)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, h.Count, 10)
		b = append(b, '\n')
	}
	return b
}

// renderServerMetrics appends the overload-protection and degraded-mode
// series: whether the store has latched a WAL failure, how many commits
// it acknowledged without durability, how many commands admission shed,
// how many handler panics were contained, and how many commands were
// answered in how many writes.
func renderServerMetrics(b []byte, srv *server) []byte {
	ws := srv.store.WALStats()
	b = append(b, "# HELP mtxkv_degraded Store has latched a WAL failure (1 = degraded).\n"...)
	b = append(b, "# TYPE mtxkv_degraded gauge\nmtxkv_degraded "...)
	if ws.Degraded {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, "\n# HELP mtxkv_degraded_mode Configured WAL-failure policy (1 = active mode).\n"...)
	b = append(b, "# TYPE mtxkv_degraded_mode gauge\nmtxkv_degraded_mode{mode=\""...)
	b = append(b, srv.store.DegradedMode().String()...)
	b = append(b, "\"} 1\n"...)
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"mtxkv_wal_shed_writes_total", "Commits acknowledged without durability while degraded (shed-durability mode).", ws.ShedWrites},
		{"mtxkv_shed_total", "Commands refused with ERR overloaded by admission control.", srv.shed.Load()},
		{"mtxkv_conn_panics_total", "Connection handler panics recovered (each cost one connection).", srv.panics.Load()},
		{"mtxkv_wire_commands_total", "Line-protocol commands answered.", srv.wireCommands.Load()},
		{"mtxkv_wire_flushes_total", "Socket writes that carried those answers; commands per flush is the pipelining being served.", srv.wireFlushes.Load()},
	} {
		b = append(b, "# HELP "+c.name+" "+c.help+"\n# TYPE "+c.name+" counter\n"+c.name+" "...)
		b = strconv.AppendUint(b, c.v, 10)
		b = append(b, '\n')
	}
	return b
}

// appendPromHist renders one histogram series in Prometheus text format:
// cumulative counts at each non-empty bucket's inclusive upper bound,
// the mandatory +Inf bucket, then _sum and _count. Skipping empty
// buckets keeps the exposition compact; cumulative values make that
// lossless for quantile estimation.
func appendPromHist(b []byte, name, labels string, s obs.Snapshot) []byte {
	sep := ""
	if labels != "" {
		sep = ","
	}
	suffix := "" // "{labels}" on _sum/_count, omitted when unlabeled
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if i == obs.NumBuckets-1 {
			continue // the unbounded bucket is the +Inf line below
		}
		b = append(b, name+"_bucket{"+labels+sep+`le="`...)
		b = strconv.AppendInt(b, obs.BucketUpper(i), 10)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name+"_bucket{"+labels+sep+`le="+Inf"} `...)
	b = strconv.AppendUint(b, s.Count, 10)
	b = append(b, '\n')
	b = append(b, name+"_sum"+suffix+" "...)
	b = strconv.AppendUint(b, s.Sum, 10)
	b = append(b, '\n')
	b = append(b, name+"_count"+suffix+" "...)
	b = strconv.AppendUint(b, s.Count, 10)
	b = append(b, '\n')
	return b
}

// appendEscapedLabel escapes a Prometheus label value: backslash, quote
// and newline, per the exposition format.
func appendEscapedLabel(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, v[i])
		}
	}
	return b
}
