// Command benchmark is the repo's benchmark: six workloads that drive
// the served system from the wire down to the WAL and across to a
// replica, end-to-end metrics from an untraced run, per-layer metrics
// from a traced one. BENCHMARK.json at the repo root names the command,
// the workloads, the metrics and their regression bounds; README.md in
// this directory says why each was chosen.
//
//	go run ./benchmark                          every workload, untraced
//	go run ./benchmark -trace 1                 every workload, traced
//	go run ./benchmark -workload wire-pingpong -seed 7 -seconds 13 -trace 0
//	go run ./benchmark -repeat 2                two sets and their spread against the bounds
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and metrics (name -> value and unit). The exit
// code is non-zero when a correctness check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed     uint64
	window   time.Duration // the measured window; a traced run measures two quarter windows
	traced   bool
	scale    float64 // sizes relative to the real workloads; the smoke test runs small
	oneSetup bool    // set up once however often the workload asks for: traced runs and the smoke test
	root     string  // repo root: where cmd/mtx-kv is built from
	scratch  string  // build outputs and data directories, inside the checkout
	outDir   string  // where -out writes traces; empty writes none
}

// timeSetups runs setup n times, calling teardown (untimed) on the
// previous instance before each repeat, and returns every run's seconds.
// The last instance is left standing. Each workload fixes its n: the
// shorter a set-up, the more of them it takes for their median to hold
// still.
func (c runConfig) timeSetups(n int, setup, teardown func() error) ([]float64, error) {
	if c.oneSetup {
		n = 1
	}
	var times []float64
	for {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= n {
			return times, nil
		}
		if err := teardown(); err != nil {
			return nil, err
		}
	}
}

// measured is how long one measured window lasts: the whole window, or a
// quarter of it on a traced run, which measures two (one untraced, the
// base of trace.overhead_ratio, and one traced).
func (c runConfig) measured() time.Duration {
	if c.traced {
		return c.window / 4
	}
	return c.window
}

// ringLen is the length of each client's pre-generated op ring.
func (c runConfig) ringLen() int {
	if c.scale < 1 {
		return 1 << 14
	}
	return 1 << 20
}

// writeTrace writes a traced window's spans when -out asked for them.
func (c runConfig) writeTrace(workload string, trs []*tracer) error {
	if c.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(c.outDir, workload+".spans.csv"), trs)
}

// workload is one named traffic mix and the function that runs it.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

// workloads lists the six workloads at the given size scale, in the
// order BENCHMARK.json lists them.
func workloads(scale float64) []workload {
	var ws []workload
	for _, spec := range inprocSpecs(scale) {
		ws = append(ws, workload{spec.name, func(cfg runConfig) (*result, error) { return runInproc(spec, cfg) }})
	}
	for _, spec := range wireSpecs(scale) {
		ws = append(ws, workload{spec.name, func(cfg runConfig) (*result, error) { return runWire(spec, cfg) }})
	}
	spec := replicaSpecFor(scale)
	ws = append(ws, workload{spec.name, func(cfg runConfig) (*result, error) { return runReplica(spec, cfg) }})
	return ws
}

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed all inputs are generated from")
		seconds = flag.Float64("seconds", 13, "measured window per workload, in seconds")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run this many full sets and report each end-to-end metric's spread against its bound")
		out     = flag.String("out", "", "directory to write traced runs' spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-out DIR]")
		return 2
	}
	var selected []workload
	for _, w := range workloads(1) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		oneSetup: *trace == 1, scale: 1, root: root, outDir: *out}
	if len(selected) == 1 && *repeat == 1 {
		return runOne(selected[0], cfg)
	}

	// Several runs: each in a process of its own, as the driver runs
	// them, so that a workload's memory peak, collector state and caches
	// are its own and not what the workload before it left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var sets [][]*result
	for set := 0; set < *repeat; set++ {
		var results []*result
		for _, w := range selected {
			res, err := runChild(ctx, w.name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			results = append(results, res)
		}
		sets = append(sets, results)
	}
	if *repeat > 1 {
		bounds, err := readBounds(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printSpread(os.Stdout, sets, bounds)
	}
	rep := report(sets[len(sets)-1])
	fmt.Println(rep.line())
	if !rep.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, cfg runConfig) (code int) {
	var err error
	if cfg.scratch, err = makeScratch(cfg.root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Every exit path — return, panic, signal — removes the scratch
	// directory and kills any server still running.
	cleanup := func() {
		killServers()
		os.RemoveAll(cfg.scratch)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	trace := 0
	if cfg.traced {
		trace = 1
	}
	fmt.Printf("benchmark: seed %d, window %v, trace %d; nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		cfg.seed, cfg.window, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, err := w.run(cfg)
	if err == nil {
		err = res.validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	rep := report([]*result{res})
	fmt.Println(rep.line())
	if !rep.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload as a child process with the same settings,
// passes its output through up to the closing JSON line, and reads the
// result back from that line.
func runChild(ctx context.Context, name string, cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64), "-trace", trace}
	if cfg.outDir != "" {
		args = append(args, "-out", cfg.outDir)
	}
	// The child cleans up after itself on SIGTERM, and gets one when this
	// process is told to stop.
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	body, last := cutLastLine(string(out))
	os.Stdout.WriteString(body)
	var rep reportJSON
	if err := json.Unmarshal([]byte(last), &rep); err != nil || rep.Metrics == nil {
		if runErr == nil {
			runErr = fmt.Errorf("no result line: %q", last)
		}
		return nil, runErr // a failed check still ends in a result line; this run never got that far
	}
	res := newResult(name, cfg.traced)
	res.attempted, res.failed = rep.Attempted, rep.Failed
	for metric, m := range rep.Metrics {
		res.values[metric] = m.Value
	}
	return res, nil
}

// cutLastLine splits text into everything up to its last line, and that
// line without its newline.
func cutLastLine(text string) (body, last string) {
	text = strings.TrimRight(text, "\n")
	i := strings.LastIndexByte(text, '\n') // -1 when there is one line only
	return text[:i+1], text[i+1:]
}

// makeScratch creates this run's scratch directory under the checkout's
// .bench_build (which .gitignore names): the benchmark reads and writes
// nowhere else.
func makeScratch(root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
