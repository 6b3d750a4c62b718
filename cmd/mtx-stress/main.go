// Command mtx-stress exercises the paper's mixed-mode idioms on the real
// STM engines (experiments S1–S3 of DESIGN.md): privatization with and
// without quiescence fences, publication, and the eager-versioning
// anomalies, reporting violation counts of programmer-model-forbidden
// outcomes.
package main

import (
	"flag"
	"fmt"
	"os"

	"modtx/internal/stm"
)

func main() {
	iters := flag.Int("iters", 2000, "iterations per probabilistic scenario")
	flag.Parse()

	fmt.Printf("%-22s %-12s %-7s %10s %10s\n", "scenario", "engine", "fenced", "iters", "violations")
	row := func(r stm.StressResult) {
		fmt.Printf("%-22s %-12s %-7v %10d %10d\n",
			r.Scenario, r.Engine, r.Fenced, r.Iterations, r.Violations)
	}

	bad := false
	for _, engine := range stm.Engines() {
		s := stm.New(stm.WithEngine(engine))
		row(stm.Publication(s, *iters))
		for _, fenced := range []bool{false, true} {
			r := stm.Privatization(stm.New(stm.WithEngine(engine)), *iters, fenced)
			row(r)
			if fenced && r.Violations > 0 {
				bad = true
			}
		}
	}

	// Deterministic anomaly demonstrations (forced windows). The
	// write-buffering engine, lazy, exhibits delayed writeback.
	row(stm.PrivatizationDeterministic(stm.New(stm.WithEngine(stm.Lazy)), false))
	row(stm.PrivatizationDeterministic(stm.New(stm.WithEngine(stm.Lazy)), true))
	eager := stm.New(stm.WithEngine(stm.Eager))
	row(stm.LostUpdateDeterministic(eager))
	eager2 := stm.New(stm.WithEngine(stm.Eager))
	row(stm.DirtyReadDeterministic(eager2))
	lazy2 := stm.New(stm.WithEngine(stm.Lazy))
	row(stm.LostUpdate(lazy2, *iters))

	fmt.Println("\nexpected: fenced privatization and publication show zero violations;")
	fmt.Println("unfenced deterministic scenarios show the forced anomalies (§3.4/§3.5/§5).")
	if bad {
		fmt.Println("ERROR: fenced scenario violated the model")
		os.Exit(1)
	}
}
