package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself
// reads: the metric lists, and the bound each end-to-end metric may
// worsen by.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

func readBounds(root string) (map[string]float64, error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// printSpread prints, for every end-to-end metric of every workload,
// each set's value and the relative spread (max - min over the median)
// across sets. Sets of one commit that disagree by more than the
// metric's bound cannot resolve a regression of that size: the row is
// UNRESOLVED and the metric does not belong among the bounded ones.
func printSpread(w io.Writer, sets [][]*result, bounds map[string]float64) {
	fmt.Fprintf(w, "== spread over %d sets\n", len(sets))
	for i, first := range sets[0] {
		if first.traced {
			continue
		}
		for _, d := range endToEnd {
			vals := make([]float64, len(sets))
			for s := range sets {
				vals[s] = sets[s][i].values[d.name]
			}
			spread := ratio(slices.Max(vals)-slices.Min(vals), math.Abs(median(vals)))
			verdict := "PASS"
			if spread > bounds[d.name] {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(w, "  %-24s %-14s", first.workload, d.name)
			for _, v := range vals {
				fmt.Fprintf(w, " %14.4f", v)
			}
			fmt.Fprintf(w, "  spread %6.2f%%  bound %5.1f%%  %s\n", 100*spread, 100*bounds[d.name], verdict)
		}
	}
}
