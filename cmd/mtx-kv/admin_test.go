package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"modtx/internal/kv"
	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// adminStore builds a store with every call sampled and a little traffic
// on every instrumented path, so the admin endpoints have real data to
// render.
func adminStore(t *testing.T, e stm.Engine) *kv.Store {
	t.Helper()
	s := kv.New(kv.WithShards(4), kv.WithEngine(e), kv.WithMetricsSampling(1))
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("k"); err != nil || !ok {
		t.Fatal("get failed")
	}
	if _, err := s.CounterAdd("ctr", 7); err != nil {
		t.Fatal(err)
	}
	// Synthetic contention so the hot-key gauge renders at least one row.
	s.ShardSTM(s.ShardOf("ctr")).Metrics().Contention.Record(1)
	return s
}

// promLine matches one Prometheus text-format sample:
// name{labels} value — where value is an integer here (all our samples
// are counts, sums or gauges of integers).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+$`)

// TestAdminPlane drives the HTTP admin mux over loopback on every
// engine: /healthz liveness, /metrics syntax + content, /debug/vars
// JSON, and the pprof index.
func TestAdminPlane(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			ts := httptest.NewServer(adminMux(adminStore(t, e)))
			defer ts.Close()

			get := func(path string) (int, string) {
				t.Helper()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(body)
			}

			if code, body := get("/healthz"); code != 200 || body != "ok\n" {
				t.Fatalf("/healthz: %d %q", code, body)
			}

			code, body := get("/metrics")
			if code != 200 || body == "" {
				t.Fatalf("/metrics: %d, empty=%v", code, body == "")
			}
			for _, want := range []string{
				`mtxkv_op_latency_ns_bucket{op="get",le="+Inf"}`,
				`mtxkv_op_latency_ns_count{op="set"}`,
				`mtxkv_stm_latency_ns_bucket{kind="commit"`,
				"mtxkv_stm_txn_attempts_count ",
				"mtxkv_commits_total ",
				"mtxkv_shards 4",
				"mtxkv_hot_key_conflicts{key=",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			// Every non-comment line must be well-formed exposition text.
			for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				if !promLine.MatchString(line) {
					t.Errorf("malformed metrics line %q", line)
				}
			}
			// Histogram buckets must be cumulative: each series'
			// per-bucket counts never decrease and end at _count.
			checkCumulative(t, body, `mtxkv_op_latency_ns`, `op="get"`)

			code, body = get("/debug/vars")
			if code != 200 {
				t.Fatalf("/debug/vars: %d", code)
			}
			var vars map[string]json.RawMessage
			if err := json.Unmarshal([]byte(body), &vars); err != nil {
				t.Fatalf("/debug/vars not JSON: %v", err)
			}
			var tree struct {
				Stats     kv.Stats `json:"stats"`
				Latencies struct {
					Ops map[string]obs.Snapshot `json:"ops"`
				} `json:"latencies"`
				HotKeys []kv.HotKey `json:"hot_keys"`
			}
			if err := json.Unmarshal(vars["mtxkv"], &tree); err != nil {
				t.Fatalf("mtxkv expvar tree: %v", err)
			}
			if tree.Stats.Commits == 0 || tree.Latencies.Ops["get"].Count == 0 {
				t.Fatalf("expvar tree missing data: %+v", tree)
			}
			if len(tree.HotKeys) == 0 {
				t.Fatal("expvar tree missing hot keys")
			}

			if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
				t.Fatalf("/debug/pprof/: %d", code)
			}
			if code, _ := get("/debug/pprof/cmdline"); code != 200 {
				t.Fatalf("/debug/pprof/cmdline: %d", code)
			}
		})
	}
}

// checkCumulative parses one histogram series out of the exposition text
// and asserts the le-bucket values are nondecreasing and agree with the
// series' _count sample.
func checkCumulative(t *testing.T, body, name, label string) {
	t.Helper()
	var prev uint64
	var inf uint64
	seen := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{"+label+",le=") {
			continue
		}
		seen = true
		val := line[strings.LastIndexByte(line, ' ')+1:]
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, prev)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			inf = n
		}
	}
	if !seen {
		t.Fatalf("series %s{%s} not found", name, label)
	}
	countLine := name + "_count{" + label + "} "
	i := strings.Index(body, countLine)
	if i < 0 {
		t.Fatalf("missing %s", countLine)
	}
	rest := body[i+len(countLine):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	count, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if inf != count {
		t.Fatalf("+Inf bucket %d != _count %d", inf, count)
	}
}

// TestAdminPlaneWAL pins the durability observability surface: a
// durable store's /metrics carries the WAL counters, level gauge and
// latency histograms, and the expvar tree gains a "wal" subtree — all
// well-formed exposition text.
func TestAdminPlaneWAL(t *testing.T) {
	store, err := kv.Open(kv.WithShards(4), kv.WithMetricsSampling(1),
		kv.WithDurability(t.TempDir(), wal.Fsync))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CounterAdd("ctr", 7); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(adminMux(store))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`mtxkv_wal_level{level="fsync"} 1`,
		"mtxkv_wal_fsyncs_total ",
		"mtxkv_wal_bytes_total ",
		"mtxkv_changefeed_dropped_total 0",
		"mtxkv_changefeed_subscribers 0",
		`mtxkv_wal_append_ns_bucket{le="+Inf"}`,
		"mtxkv_wal_fsync_ns_count ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if metricValue(t, text, "mtxkv_wal_appends_total") < 2 {
		t.Errorf("mtxkv_wal_appends_total below traffic:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !promLine.MatchString(line) {
			t.Errorf("malformed metrics line %q", line)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Mtxkv struct {
			Wal kv.WALStats `json:"wal"`
		} `json:"mtxkv"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Mtxkv.Wal.Level != "fsync" || vars.Mtxkv.Wal.Appends < 2 {
		t.Fatalf("expvar wal subtree: %+v", vars.Mtxkv.Wal)
	}
}

// metricValue extracts one unlabeled counter/gauge sample from
// exposition text.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestExpvarRepublish pins the multi-store behavior: building a second
// admin mux must not panic (expvar.Publish is once-only) and must
// retarget the published tree at the new store.
func TestExpvarRepublish(t *testing.T) {
	s1 := adminStore(t, stm.Lazy)
	_ = adminMux(s1)
	s2 := kv.New(kv.WithShards(2), kv.WithEngine(stm.Lazy))
	_ = adminMux(s2) // must not panic
	ts := httptest.NewServer(adminMux(s2))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Mtxkv struct {
			Stats kv.Stats `json:"stats"`
		} `json:"mtxkv"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Mtxkv.Stats.Shards != 2 {
		t.Fatalf("expvar tree still points at the old store: %+v", vars.Mtxkv.Stats)
	}
}
