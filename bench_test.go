// Benchmarks regenerating every experiment of DESIGN.md §5: one benchmark
// (or sub-benchmark) per figure/example verdict, per theorem checker, per
// optimization report, and the STM experiments that no workload of
// `go run ./benchmark` runs yet: fences, plain access, the stress
// scenarios, the kv plain reads and blocking (S1–S4, S6's fast paths,
// S7). Transaction throughput (S5) and the kv transactions (the rest of
// S6) are that benchmark's workloads and probes.
//
// Run with: go test -bench=. -benchmem .
package modtx_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"modtx"
	"modtx/internal/core"
	"modtx/internal/kv"
	"modtx/internal/litmus"
	"modtx/internal/ltrf"
	"modtx/internal/opt"
	"modtx/internal/prog"
	"modtx/internal/rel"
	"modtx/internal/stm"
)

// BenchmarkFigures re-checks every paper figure (experiments E05–E33's
// execution-graph entries) per iteration.
func BenchmarkFigures(b *testing.B) {
	for _, f := range litmus.Figures() {
		f := f
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range litmus.RunFigure(f) {
					if !r.Pass() {
						b.Fatalf("figure disagreement: %s", r)
					}
				}
			}
		})
	}
}

// BenchmarkPrograms re-enumerates every paper litmus program (experiments
// E01–E33's program entries) per iteration.
func BenchmarkPrograms(b *testing.B) {
	for _, p := range litmus.Programs() {
		p := p
		b.Run(p.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range litmus.RunProgram(p) {
					if !r.Pass() {
						b.Fatalf("program disagreement: %s", r)
					}
				}
			}
		})
	}
}

// BenchmarkTheorem41 regenerates the SC-LTRF check (T41) on the
// privatization program: Σ generation plus the decomposition search.
func BenchmarkTheorem41(b *testing.B) {
	p := litmus.PrivatizationProgram(false)
	for i := 0; i < b.N; i++ {
		ts, err := ltrf.GenerateTraces(p, core.Programmer, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, cexs := ts.CheckTheorem41(nil); len(cexs) > 0 {
			b.Fatalf("counterexample: %v", cexs[0])
		}
	}
}

// BenchmarkTheorem42 regenerates the aborted-removal check (T42).
func BenchmarkTheorem42(b *testing.B) {
	p := litmus.PrivatizationProgram(false)
	ts, err := ltrf.GenerateTraces(p, core.Programmer, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fails := ts.CheckTheorem42(); len(fails) > 0 {
			b.Fatal("theorem 4.2 failure")
		}
	}
}

// BenchmarkLemmaC1 regenerates the happens-before decomposition check (LC1)
// over the figure catalog.
func BenchmarkLemmaC1(b *testing.B) {
	figs := litmus.Figures()
	for i := 0; i < b.N; i++ {
		for _, f := range figs {
			x := f.Build()
			if missing, extra := ltrf.CheckLemmaC1(x); len(missing)+len(extra) > 0 {
				b.Fatalf("%s: decomposition mismatch", f.ID)
			}
		}
	}
}

// BenchmarkLemmaC2 regenerates the suborder-consistency equivalence (LC2).
func BenchmarkLemmaC2(b *testing.B) {
	figs := litmus.Figures()
	for i := 0; i < b.N; i++ {
		for _, f := range figs {
			x := f.Build()
			if ltrf.ConsistentBySuborders(x) != core.Consistent(x, core.Implementation) {
				b.Fatalf("%s: characterization mismatch", f.ID)
			}
		}
	}
}

// BenchmarkLemma51 regenerates the implementation→programmer transfer (L51)
// on the fenced privatization program.
func BenchmarkLemma51(b *testing.B) {
	p := litmus.PrivatizationProgram(true)
	for i := 0; i < b.N; i++ {
		ts, err := ltrf.GenerateTraces(p, core.Implementation, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, tau := range ts.Traces {
			if app, holds := ltrf.CheckLemma51(tau); app && !holds {
				b.Fatal("lemma 5.1 failure")
			}
		}
	}
}

// BenchmarkOptimizations regenerates the §5 transformation suite (O1–O5).
func BenchmarkOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := opt.StandardReports()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if r.Sound != r.Expected {
				b.Fatalf("%s: verdict mismatch", r.Transform)
			}
		}
	}
}

// BenchmarkHBFixpoint measures the happens-before computation on the
// cascade figure (the deepest HBww fixpoint in the catalog).
func BenchmarkHBFixpoint(b *testing.B) {
	var cascade litmus.Figure
	for _, f := range litmus.Figures() {
		if f.ID == "E09" {
			cascade = f
		}
	}
	x := cascade.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.Consistent(x, core.Programmer) {
			b.Fatal("cascade inconsistent")
		}
	}
}

// BenchmarkRelClosure measures the bitset relation substrate.
func BenchmarkRelClosure(b *testing.B) {
	r := rel.New(64)
	for i := 0; i < 63; i++ {
		r.Add(i, i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.TransitiveClosure().Irreflexive() {
			b.Fatal("chain became cyclic")
		}
	}
}

// BenchmarkEnumerator measures exhaustive enumeration throughput
// (candidates per second) on the IRIW program.
func BenchmarkEnumerator(b *testing.B) {
	p := &prog.Program{
		Name: "iriw-bench",
		Locs: []string{"x", "y", "z"},
		Threads: []prog.Thread{
			{Name: "t1", Body: []prog.Stmt{prog.Atomic{Name: "wx", Body: []prog.Stmt{prog.Write{Loc: prog.At("x"), Val: prog.Const(1)}}}}},
			{Name: "t2", Body: []prog.Stmt{prog.Atomic{Name: "wy", Body: []prog.Stmt{prog.Write{Loc: prog.At("y"), Val: prog.Const(1)}}}}},
			{Name: "t3", Body: []prog.Stmt{
				prog.Atomic{Name: "c1", Body: []prog.Stmt{prog.Read{RegName: "r1", Loc: prog.At("x")}}},
				prog.Write{Loc: prog.At("z"), Val: prog.Const(1)},
				prog.Atomic{Name: "c2", Body: []prog.Stmt{prog.Read{RegName: "r2", Loc: prog.At("y")}}},
			}},
			{Name: "t4", Body: []prog.Stmt{
				prog.Atomic{Name: "d1", Body: []prog.Stmt{prog.Read{RegName: "q1", Loc: prog.At("y")}}},
				prog.Write{Loc: prog.At("z"), Val: prog.Const(2)},
				prog.Atomic{Name: "d2", Body: []prog.Stmt{prog.Read{RegName: "q2", Loc: prog.At("x")}}},
			}},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := modtx.Outcomes(p, modtx.Programmer); err != nil {
			b.Fatal(err)
		}
	}
}

// --- STM performance experiments (S1–S4) ---

// stmEngines is every registered engine; the registry drives the whole
// benchmark matrix, so a new engine is a new row, not a code change.
var stmEngines = stm.Engines()

// BenchmarkSTMFence (S4): quiescence-fence overhead — the privatization
// pattern with and without Quiesce, mirroring the §6 discussion of fence
// cost.
func BenchmarkSTMFence(b *testing.B) {
	for _, fenced := range []bool{false, true} {
		name := "unfenced"
		if fenced {
			name = "quiesce"
		}
		b.Run(name, func(b *testing.B) {
			s := stm.New(stm.WithEngine(stm.Lazy))
			x := s.NewVar("x", 0)
			y := s.NewVar("y", 0)
			for i := 0; i < b.N; i++ {
				_ = s.Atomically(func(tx *stm.Tx) error {
					tx.Write(y, 1)
					return nil
				})
				if fenced {
					s.Quiesce(x)
				}
				x.Store(int64(i))
			}
		})
	}
}

// BenchmarkSTMPlainAccess (S4): mixed-mode plain access runs at native
// atomic speed (the model's "non-volatile accesses are not slowed" claim).
func BenchmarkSTMPlainAccess(b *testing.B) {
	s := stm.New(stm.WithEngine(stm.Lazy))
	x := s.NewVar("x", 0)
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.Store(int64(i))
		}
	})
	b.Run("load", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += x.Load()
		}
		_ = sink
	})
}

// BenchmarkSTMStressSuite (S1–S3): the probabilistic stress scenarios.
func BenchmarkSTMStressSuite(b *testing.B) {
	b.Run("privatization-fenced", func(b *testing.B) {
		s := stm.New(stm.WithEngine(stm.Lazy))
		for i := 0; i < b.N; i++ {
			if r := stm.Privatization(s, 1, true); r.Violations != 0 {
				b.Fatal("fenced privatization violated")
			}
		}
	})
	b.Run("publication", func(b *testing.B) {
		s := stm.New(stm.WithEngine(stm.Lazy))
		for i := 0; i < b.N; i++ {
			if r := stm.Publication(s, 1); r.Violations != 0 {
				b.Fatal("publication violated")
			}
		}
	})
}

// BenchmarkKVFastPath (S6): the internal/kv lock-free plain-read path on
// the int64 specialization — one atomic pointer load, one map lookup, one
// atomic value load, no boxing.
func BenchmarkKVFastPath(b *testing.B) {
	for _, e := range stmEngines {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			store := kv.New(kv.WithShards(64), kv.WithEngine(e))
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%04d", i)
			}
			store.EnsureCounters(keys...)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, ok := store.FastCounterGet(keys[i&1023]); !ok {
						b.Fatal("missing key")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkKVFastPathBytes (S6): the same plain-read path on byte values
// (typed lane): one extra pointer indirection over the specialization.
func BenchmarkKVFastPathBytes(b *testing.B) {
	for _, e := range stmEngines {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			store := kv.New(kv.WithShards(64), kv.WithEngine(e))
			vals := make(map[string][]byte, 1024)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%04d", i)
				vals[keys[i]] = []byte("payload")
			}
			if err := store.MSet(vals); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, ok := store.FastGet(keys[i&1023]); !ok {
						b.Fatal("missing key")
					}
					i++
				}
			})
		})
	}
}

// --- Blocking & composition experiments (S7) ---

// BenchmarkSTMBlocked (S7): wakeup latency of the commit-notification
// subsystem — a round-trip handoff between two goroutines through two
// one-slot Var mailboxes, where every receive parks (Tx.Block) until the
// peer's send commits. Each op is one full park→notify→wake→take round
// trip on each side; before the event-driven rework the same pattern
// cost up to two 4ms backoff sleeps per hop.
func BenchmarkSTMBlocked(b *testing.B) {
	// A mailbox holds 0 when empty; send parks while it is full, recv
	// while it is empty.
	send := func(s *stm.STM, box *stm.Var, v int64) error {
		return s.Atomically(func(tx *stm.Tx) error {
			if tx.Read(box) != 0 {
				tx.Block()
			}
			tx.Write(box, v)
			return nil
		})
	}
	recv := func(s *stm.STM, box *stm.Var) (v int64, err error) {
		err = s.Atomically(func(tx *stm.Tx) error {
			if v = tx.Read(box); v == 0 {
				tx.Block()
			}
			tx.Write(box, 0)
			return nil
		})
		return v, err
	}
	for _, e := range stmEngines {
		e := e
		b.Run(e.String(), func(b *testing.B) {
			s := stm.New(stm.WithEngine(e))
			ping, pong := s.NewVar("ping", 0), s.NewVar("pong", 0)
			go func() {
				for {
					v, err := recv(s, ping)
					if err != nil || v < 0 {
						return
					}
					if err := send(s, pong, v); err != nil {
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := send(s, ping, int64(i)+1); err != nil {
					b.Fatal(err)
				}
				if _, err := recv(s, pong); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = send(s, ping, -1) // stop the echo goroutine
		})
	}
}

// BenchmarkKVWaitGet (S7): the blocking read path of the KV store.
// The hit case measures WaitGet on a present key — the non-blocking
// fast path, which must stay within sight of plain Get; the handoff
// case measures a blocking value handoff between two goroutines via
// WatchFrom (park → Set commit → notified wakeup → read), the KV
// equivalent of the STMBlocked round trip.
func BenchmarkKVWaitGet(b *testing.B) {
	for _, e := range stmEngines {
		e := e
		b.Run(e.String()+"/hit", func(b *testing.B) {
			store := kv.New(kv.WithShards(64), kv.WithEngine(e))
			if err := store.Set("k", []byte("v")); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WaitGet(ctx, "k"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(e.String()+"/handoff", func(b *testing.B) {
			store := kv.New(kv.WithShards(64), kv.WithEngine(e))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := store.Set("ping", []byte("0")); err != nil {
				b.Fatal(err)
			}
			if err := store.Set("pong", []byte("0")); err != nil {
				b.Fatal(err)
			}
			go func() {
				last := []byte("0")
				for {
					v, ok, err := store.WatchFrom(ctx, "ping", last, true)
					if err != nil || !ok {
						return
					}
					last = v
					if err := store.Set("pong", v); err != nil {
						return
					}
				}
			}()
			lastPong := []byte("0")
			buf := make([]byte, 0, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = strconv.AppendInt(buf[:0], int64(i+1), 10)
				if err := store.Set("ping", buf); err != nil {
					b.Fatal(err)
				}
				v, ok, err := store.WatchFrom(ctx, "pong", lastPong, true)
				if err != nil || !ok {
					b.Fatal(err)
				}
				lastPong = append(lastPong[:0], v...)
			}
		})
	}
}
