package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload end to end at a hundredth of its
// size with 300 ms windows, untraced and traced, and holds the code and
// BENCHMARK.json to each other: same workloads, same metric names and
// units, every metric emitted exactly once.

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	ws := workloads(1)
	if len(ws) != len(bf.Workloads) {
		t.Fatalf("code has %d workloads, BENCHMARK.json %d", len(ws), len(bf.Workloads))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if w.name != bf.Workloads[i].Name {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q", i, w.name, bf.Workloads[i].Name)
		}
		if !metricName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
	}
	if len(endToEnd) != len(bf.EndToEnd) {
		t.Fatalf("code has %d end-to-end metrics, BENCHMARK.json %d", len(endToEnd), len(bf.EndToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end-to-end metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower is better] among the end-to-end metrics")
	}
	if len(perLayer) != len(bf.PerLayer) {
		t.Fatalf("code has %d per-layer metrics, BENCHMARK.json %d", len(perLayer), len(bf.PerLayer))
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per-layer metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, m.Name, m.Unit)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := makeScratch(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killServers()
		os.RemoveAll(scratch)
	})
	for _, w := range workloads(0.01) {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && strings.HasPrefix(w.name, "wire-") {
					t.Skip("builds and spawns cmd/mtx-kv")
				}
				cfg := runConfig{seed: 1, window: 300 * time.Millisecond, traced: traced, scale: 0.01,
					oneSetup: true, root: root, scratch: scratch}
				res, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.validate(); err != nil {
					t.Error(err)
				}
				if res.failed != 0 {
					t.Errorf("%d of %d failed: %v", res.failed, res.attempted, res.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				rep := report([]*result{res})
				if len(rep.Metrics) != len(defs) || !rep.Correct {
					t.Errorf("report has %d metrics (correct %v), want %d", len(rep.Metrics), rep.Correct, len(defs))
				}
				var printed bytes.Buffer
				res.print(&printed)
				for _, d := range defs {
					if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("%s: reported %v [%s], want unit %s", d.name, ok, m.Unit, d.unit)
					}
					if n := strings.Count(printed.String(), "  "+d.name+" "); n != 1 {
						t.Errorf("%s printed %d times", d.name, n)
					}
				}
			})
		}
	}
}
