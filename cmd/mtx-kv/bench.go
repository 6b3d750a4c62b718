package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/kv"
	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// benchReport is the machine-readable form of one bench invocation
// (-json): the workload configuration plus one row per engine. Field
// names are stable.
type benchReport struct {
	Keys       int               `json:"keys"`
	Shards     int               `json:"shards"`
	Goroutines int               `json:"goroutines"`
	Procs      int               `json:"procs"`           // GOMAXPROCS during the run
	Clock      string            `json:"clock,omitempty"` // version-clock mode ("shared" omitted)
	DurationMs int64             `json:"duration_ms"`
	FastPct    int               `json:"fastread_pct"`
	ReadPct    int               `json:"read_pct"`
	WritePct   int               `json:"write_pct"`
	TxnPct     int               `json:"txn_pct"`
	Zipf       float64           `json:"zipf"`
	Durability string            `json:"durability,omitempty"` // "off" omitted
	Engines    []benchEngineJSON `json:"engines"`
}

type benchEngineJSON struct {
	Engine    string      `json:"engine"`
	Ops       uint64      `json:"ops"`
	OpsPerSec float64     `json:"ops_per_sec"`
	P50Ns     int64       `json:"p50_ns"`
	P95Ns     int64       `json:"p95_ns"`
	P99Ns     int64       `json:"p99_ns"`
	P999Ns    int64       `json:"p999_ns"`
	MaxNs     int64       `json:"max_ns"`
	Conflicts uint64      `json:"conflicts"`
	Errors    uint64      `json:"errors"`
	Shed      uint64      `json:"shed"`
	HotKeys   []kv.HotKey `json:"hot_keys"`
}

// runBench drives the store in-process with a configurable mixed workload
// and reports throughput and latency percentiles per engine, as a table
// or (-json) as a machine-readable report on stdout.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	engineName := fs.String("engine", "all", engineFlagHelp(true))
	clockName := fs.String("clock", "shared", "version-clock mode: "+strings.Join(stm.ClockNames(), ", "))
	procs := fs.Int("procs", 0, "set GOMAXPROCS for the run (0: leave the runtime default); use for 1/4/16 scaling sweeps")
	shards := fs.Int("shards", 64, "shard count (rounded up to a power of two)")
	nkeys := fs.Int("keys", 65536, "number of preloaded keys")
	goroutines := fs.Int("goroutines", 8, "concurrent load goroutines")
	duration := fs.Duration("duration", 2*time.Second, "run time per engine")
	fastPct := fs.Int("fastread-pct", 70, "percent of ops that are lock-free FastGets")
	readPct := fs.Int("read-pct", 20, "percent of ops that are transactional Gets")
	writePct := fs.Int("write-pct", 5, "percent of ops that are transactional Sets (remainder: cross-key TXN transfers)")
	zipfS := fs.Float64("zipf", 1.2, "Zipf skew parameter s (<=1 means uniform key choice)")
	durability := fs.String("durability", "off",
		"write-ahead log level for the benched store: off, none, batch, fsync")
	dataDir := fs.String("data", "",
		"durability directory with -durability (default: a temp dir, removed afterwards)")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fastPct+*readPct+*writePct > 100 {
		return fmt.Errorf("op percentages exceed 100")
	}
	engines, err := enginesForFlag(*engineName)
	if err != nil {
		return err
	}
	clock, err := stm.ParseClock(*clockName)
	if err != nil {
		return err
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	// durOpts builds the per-engine durability options: each engine gets
	// its own subdirectory so a matrix run never recovers a predecessor's
	// state.
	durOpts := func(string) []kv.Option { return nil }
	if *durability != "off" {
		level, err := wal.ParseLevel(*durability)
		if err != nil {
			return err
		}
		base := *dataDir
		if base == "" {
			base, err = os.MkdirTemp("", "mtx-kv-bench-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(base)
		}
		durOpts = func(engine string) []kv.Option {
			return []kv.Option{kv.WithDurability(filepath.Join(base, engine), level)}
		}
	}

	if !*asJSON {
		fmt.Printf("mtx-kv bench: %d keys, %d shards, %d goroutines, %v per engine, durability %s, clock %s, GOMAXPROCS %d\n",
			*nkeys, *shards, *goroutines, *duration, *durability, clock, runtime.GOMAXPROCS(0))
		fmt.Printf("op mix: %d%% fastget / %d%% get / %d%% set / %d%% txn-transfer, zipf=%.2f\n\n",
			*fastPct, *readPct, *writePct, 100-*fastPct-*readPct-*writePct, *zipfS)
		fmt.Printf("%-12s %12s %12s %10s %10s %10s %10s %10s %12s %8s %8s\n",
			"engine", "ops", "ops/sec", "p50", "p95", "p99", "p999", "max", "conflicts", "errors", "shed")
	}

	report := benchReport{
		Keys:       *nkeys,
		Shards:     *shards,
		Goroutines: *goroutines,
		Procs:      runtime.GOMAXPROCS(0),
		DurationMs: duration.Milliseconds(),
		FastPct:    *fastPct,
		ReadPct:    *readPct,
		WritePct:   *writePct,
		TxnPct:     100 - *fastPct - *readPct - *writePct,
		Zipf:       *zipfS,
	}
	if *durability != "off" {
		report.Durability = *durability
	}
	if clock != stm.ClockShared {
		report.Clock = clock.String()
	}
	for _, e := range engines {
		r, err := benchOne(e, clock, *shards, *nkeys, *goroutines, *duration, *fastPct, *readPct, *writePct, *zipfS,
			durOpts(e.String()))
		if err != nil {
			return err
		}
		if *asJSON {
			report.Engines = append(report.Engines, benchEngineJSON{
				Engine:    e.String(),
				Ops:       r.ops,
				OpsPerSec: r.opsPerSec,
				P50Ns:     r.p50.Nanoseconds(),
				P95Ns:     r.p95.Nanoseconds(),
				P99Ns:     r.p99.Nanoseconds(),
				P999Ns:    r.p999.Nanoseconds(),
				MaxNs:     r.max.Nanoseconds(),
				Conflicts: r.conflicts,
				Errors:    r.errs,
				Shed:      r.shed,
				HotKeys:   r.hot,
			})
			continue
		}
		fmt.Printf("%-12s %12d %12.0f %10v %10v %10v %10v %10v %12d %8d %8d\n",
			e, r.ops, r.opsPerSec, r.p50, r.p95, r.p99, r.p999, r.max, r.conflicts, r.errs, r.shed)
		if len(r.hot) > 0 {
			fmt.Printf("%-12s hot keys:", "")
			for _, h := range r.hot {
				fmt.Printf(" %s(%d)", h.Key, h.Count)
			}
			fmt.Println()
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

type benchResult struct {
	ops                      uint64
	opsPerSec                float64
	p50, p95, p99, p999, max time.Duration
	conflicts                uint64
	errs                     uint64 // operations that returned an error
	shed                     uint64 // commits acknowledged without durability (degraded shed mode)
	hot                      []kv.HotKey
}

// benchOne runs the workload against a fresh store on one engine.
// extra carries the durability options, if any; the store is closed at
// the end so a durable run flushes its logs before the next engine (or
// temp-dir removal).
func benchOne(e stm.Engine, clock stm.ClockMode, shards, nkeys, goroutines int, dur time.Duration,
	fastPct, readPct, writePct int, zipfS float64, extra []kv.Option) (benchResult, error) {

	s, err := kv.Open(append([]kv.Option{kv.WithShards(shards), kv.WithEngine(e), kv.WithClock(clock)}, extra...)...)
	if err != nil {
		return benchResult{}, err
	}
	defer s.Close()
	keys := make([]string, nkeys)
	ctrs := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		ctrs[i] = fmt.Sprintf("ctr-%08d", i)
	}
	s.EnsureKeys(keys...)
	s.EnsureCounters(ctrs...)
	val := []byte("benchmark-payload-value")

	var ops, opErrs atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One obs.Histogram per goroutine: the write side is two atomic adds
	// into a private cache-line-padded array (no slice growth, no sort at
	// the end), and the snapshots merge exactly. Quantiles are then upper
	// bounds with log-bucket (2x) resolution, which is what the admin
	// plane reports too — the bench and the server agree on the math.
	hists := make([]obs.Histogram, goroutines)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			var zipf *rand.Zipf
			if zipfS > 1 {
				zipf = rand.NewZipf(rng, zipfS, 1, uint64(nkeys-1))
			}
			pickIdx := func() int {
				if zipf != nil {
					return int(zipf.Uint64())
				}
				return rng.Intn(nkeys)
			}
			h := &hists[g]
			var n, nerr uint64
			for {
				select {
				case <-stop:
					ops.Add(n)
					opErrs.Add(nerr)
					return
				default:
				}
				p := rng.Intn(100)
				// Sample every 16th op's latency to keep the timer
				// overhead off the hot path.
				sample := n&15 == 0
				var start time.Time
				if sample {
					start = time.Now()
				}
				// Errors are counted, not dropped: a degraded or read-only
				// store failing every write would otherwise report as a
				// healthy run with inflated throughput.
				switch {
				case p < fastPct:
					s.FastGet(keys[pickIdx()])
				case p < fastPct+readPct:
					if _, _, err := s.Get(keys[pickIdx()]); err != nil {
						nerr++
					}
				case p < fastPct+readPct+writePct:
					if err := s.Set(keys[pickIdx()], val); err != nil {
						nerr++
					}
				default:
					from, to := ctrs[pickIdx()], ctrs[pickIdx()]
					if from == to {
						break
					}
					if err := s.Update([]string{from, to}, func(t *kv.Txn) error {
						t.Add(from, -1)
						t.Add(to, 1)
						return nil
					}); err != nil {
						nerr++
					}
				}
				if sample {
					h.Observe(time.Since(start).Nanoseconds())
				}
				n++
			}
		}(g)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()

	var agg obs.Snapshot
	for g := range hists {
		agg.Merge(hists[g].Snapshot())
	}
	pct := func(p float64) time.Duration {
		return time.Duration(agg.Quantile(p))
	}
	st := s.Stats()
	total := ops.Load()
	return benchResult{
		ops:       total,
		opsPerSec: float64(total) / dur.Seconds(),
		p50:       pct(0.50),
		p95:       pct(0.95),
		p99:       pct(0.99),
		p999:      pct(0.999),
		max:       pct(1.0),
		conflicts: st.Conflicts,
		errs:      opErrs.Load(),
		shed:      s.WALStats().ShedWrites,
		hot:       s.HotKeys(8),
	}, nil
}
