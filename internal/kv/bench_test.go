package kv

import (
	"fmt"
	"math/rand"
	"testing"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// benchStore preloads nkeys byte-valued keys and nkeys counters. Extra
// options are appended after the defaults.
func benchStore(b *testing.B, e stm.Engine, nkeys int, opts ...Option) (*Store, []string, []string) {
	b.Helper()
	s := New(append([]Option{WithShards(64), WithEngine(e)}, opts...)...)
	keys := make([]string, nkeys)
	ctrs := make([]string, nkeys)
	vals := make(map[string][]byte, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		ctrs[i] = fmt.Sprintf("ctr-%06d", i)
		vals[keys[i]] = []byte(fmt.Sprintf("value-%06d", i))
	}
	if err := s.MSet(vals); err != nil {
		b.Fatal(err)
	}
	s.EnsureCounters(ctrs...)
	return s, keys, ctrs
}

func forEachEngineB(b *testing.B, f func(b *testing.B, e stm.Engine)) {
	for _, e := range stm.Engines() {
		b.Run(e.String(), func(b *testing.B) { f(b, e) })
	}
}

// BenchmarkKVFastGet measures the lock-free plain-access read path on
// byte values.
func BenchmarkKVFastGet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, keys, _ := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(1))
			for pb.Next() {
				if _, ok := s.FastGet(keys[rng.Intn(len(keys))]); !ok {
					b.Fatal("missing key")
				}
			}
		})
	})
}

// BenchmarkKVFastCounterGet measures the plain path on the int64
// specialization (no boxing, no formatting).
func BenchmarkKVFastCounterGet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, _, ctrs := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(1))
			for pb.Next() {
				if _, ok := s.FastCounterGet(ctrs[rng.Intn(len(ctrs))]); !ok {
					b.Fatal("missing counter")
				}
			}
		})
	})
}

// BenchmarkKVGet measures the single-key transactional read path.
func BenchmarkKVGet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, keys, _ := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(2))
			for pb.Next() {
				if _, ok, err := s.Get(keys[rng.Intn(len(keys))]); err != nil || !ok {
					b.Fatal("missing key")
				}
			}
		})
	})
}

// BenchmarkKVSet measures the single-key transactional write path
// (includes the defensive value copy).
func BenchmarkKVSet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, keys, _ := benchStore(b, e, 4096)
		val := []byte("benchmark-value")
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(3))
			for pb.Next() {
				if err := s.Set(keys[rng.Intn(len(keys))], val); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkKVDurableSet measures the single-key write path under each
// durability level on the default engine: "none" shows the pure
// logging overhead (encode + buffered append, no fsync), "batch" adds
// the interval fsync off the hot path, and "fsync" is the full
// group-commit wait — the number that shows how many concurrent
// writers share one fsync. "off" is the undisturbed baseline through
// the same harness.
func BenchmarkKVDurableSet(b *testing.B) {
	run := func(b *testing.B, opts ...Option) {
		s := New(append([]Option{WithShards(64)}, opts...)...)
		defer s.Close()
		keys := make([]string, 4096)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%06d", i)
		}
		val := []byte("benchmark-value")
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(9))
			for pb.Next() {
				if err := s.Set(keys[rng.Intn(len(keys))], val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("off", func(b *testing.B) { run(b) })
	for _, level := range []wal.Level{wal.None, wal.Batch, wal.Fsync} {
		b.Run(level.String(), func(b *testing.B) {
			run(b, WithDurability(b.TempDir(), level))
		})
	}
}

// BenchmarkKVDurableCounterAdd is the counter lane under durability:
// the logged record is fixed-size, so this isolates sequencing and
// group-commit cost from value copying.
func BenchmarkKVDurableCounterAdd(b *testing.B) {
	for _, level := range []wal.Level{wal.None, wal.Fsync} {
		b.Run(level.String(), func(b *testing.B) {
			s := New(WithShards(64), WithDurability(b.TempDir(), level))
			defer s.Close()
			ctrs := make([]string, 4096)
			for i := range ctrs {
				ctrs[i] = fmt.Sprintf("ctr-%06d", i)
			}
			s.EnsureCounters(ctrs...)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(10))
				for pb.Next() {
					if _, err := s.CounterAdd(ctrs[rng.Intn(len(ctrs))], 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkKVCounterAdd measures the int64-specialized counter hot path.
func BenchmarkKVCounterAdd(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, _, ctrs := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(6))
			for pb.Next() {
				if _, err := s.CounterAdd(ctrs[rng.Intn(len(ctrs))], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkKVTxnTransfer measures cross-shard two-key counter
// transactions.
func BenchmarkKVTxnTransfer(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, _, ctrs := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(4))
			for pb.Next() {
				from := ctrs[rng.Intn(len(ctrs))]
				to := ctrs[rng.Intn(len(ctrs))]
				if from == to {
					continue
				}
				err := s.Update([]string{from, to}, func(t *Txn) error {
					t.Add(from, -1)
					t.Add(to, 1)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkInstrumentedKVGet measures the transactional read path with
// every call sampled (WithMetricsSampling(1)) — the worst-case
// observability cost: two clock reads and a histogram record per op.
// The default configuration (BenchmarkKVGet) samples 1-in-256 and pays
// about 1/256th of the delta between this and an untimed read.
func BenchmarkInstrumentedKVGet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, keys, _ := benchStore(b, e, 4096, WithMetricsSampling(1))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(2))
			for pb.Next() {
				if _, ok, err := s.Get(keys[rng.Intn(len(keys))]); err != nil || !ok {
					b.Fatal("missing key")
				}
			}
		})
	})
}

// BenchmarkInstrumentedKVCounterAdd is the write-side twin: the counter
// hot path with every call sampled.
func BenchmarkInstrumentedKVCounterAdd(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, _, ctrs := benchStore(b, e, 4096, WithMetricsSampling(1))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(6))
			for pb.Next() {
				if _, err := s.CounterAdd(ctrs[rng.Intn(len(ctrs))], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkKVMGet measures consistent cross-shard snapshot reads of 8
// byte-valued keys.
func BenchmarkKVMGet(b *testing.B) {
	forEachEngineB(b, func(b *testing.B, e stm.Engine) {
		s, keys, _ := benchStore(b, e, 4096)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(5))
			batch := make([]string, 8)
			for pb.Next() {
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
				}
				if _, err := s.MGet(batch...); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
