package stm

import (
	"sync"
	"testing"
)

// TestAdaptiveStrategyFlip pins the Adaptive engine's strategy
// hysteresis: contended windows flip new attempts to eager, calm
// windows flip back to tl2, and fixed engines never report a strategy
// other than themselves.
func TestAdaptiveStrategyFlip(t *testing.T) {
	s := New(WithEngine(Adaptive))
	if got := s.Strategy(); got != TL2 {
		t.Fatalf("initial strategy = %v, want TL2", got)
	}
	s.retune(0.9, false)
	if got := s.Strategy(); got != Eager {
		t.Fatalf("contended strategy = %v, want Eager", got)
	}
	s.retune(0.3, false) // dead band holds the current strategy
	if got := s.Strategy(); got != Eager {
		t.Fatalf("dead-band strategy = %v, want Eager", got)
	}
	s.retune(0.05, false)
	if got := s.Strategy(); got != TL2 {
		t.Fatalf("calm strategy = %v, want TL2", got)
	}
	s.retune(0.2, true) // low rate but hotspot-skewed: still contended
	if got := s.Strategy(); got != Eager {
		t.Fatalf("skewed strategy = %v, want Eager", got)
	}

	fixed := New(WithEngine(TL2))
	fixed.retune(0.9, false) // a no-op on the fixed engines
	if got := fixed.Strategy(); got != TL2 {
		t.Fatalf("fixed engine reports strategy %v", got)
	}
	if got := New(WithEngine(Lazy)).Strategy(); got != Lazy {
		t.Fatalf("lazy instance reports strategy %v", got)
	}
}

// TestAdaptiveEngineMidFlipCorrectness runs a contended counter on the
// Adaptive engine while the test flips the strategy underneath the
// workload, so tl2-protocol and eager-protocol attempts demonstrably
// interleave on the same variables and the count still balances — the
// protocol-compatibility claim of engine_adaptive.go.
func TestAdaptiveEngineMidFlipCorrectness(t *testing.T) {
	const goroutines = 6
	const perG = 300
	s := New(WithEngine(Adaptive))
	c := s.NewVar("c", 0)
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() { // strategy flipper
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				s.strategy.Store(strategyEager)
			} else {
				s.strategy.Store(strategyTL2)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := s.Atomically(func(tx *Tx) error {
					tx.Write(c, tx.Read(c)+1)
					return nil
				}); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestMaybeAdaptRunsOnRealConflicts is the integration check of the
// controller's only call sites: a contended workload on the Adaptive
// engine must eventually close at least one window, while the same
// workload on a fixed engine never ticks the controller at all.
func TestMaybeAdaptRunsOnRealConflicts(t *testing.T) {
	contend := func(s *STM) {
		v := s.NewVar("v", 0)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					_ = s.Atomically(func(tx *Tx) error {
						tx.Write(v, tx.Read(v)+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
	}
	s := New(WithEngine(Adaptive))
	contend(s)
	if s.Snapshot().Conflicts > 4*adaptEvery && s.adapt.lastCommits == 0 && s.adapt.lastConflicts == 0 {
		t.Error("controller never ran despite ample conflicts")
	}
	fixed := New(WithEngine(TL2))
	contend(fixed)
	if got := fixed.adapt.tick.Load(); got != 0 {
		t.Errorf("fixed engine ticked the controller %d times", got)
	}
}
