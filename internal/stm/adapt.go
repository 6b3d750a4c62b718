package stm

import (
	"sync"
	"sync/atomic"
)

// The Adaptive engine's contention controller: each Adaptive instance
// retunes which registered protocol (tl2 or eager) new attempts begin
// under from its own telemetry.
//
// The controller runs on the conflict slow path only, and only on
// Adaptive instances: every conflicted attempt ticks a counter, and once
// per adaptEvery conflicts one loser (TryLock, so never two) recomputes
// the strategy from the windowed deltas of the instance's Stats — the
// conflict rate against commits — and from the obs.HotTable contention
// sketch, which tells it whether the conflicts concentrate on a single
// hot variable or spread across the keyspace. Conflict-free workloads
// and the fixed engines never run it, so the zero-allocation commit
// path is untouched. (The spin-before-park budget is a constant; see
// spinDefault in notify.go.)
const (
	// adaptEvery is the conflict period between controller runs; a
	// power of two so the gate is a mask test.
	adaptEvery = 256
	// adaptHi/adaptLo are the hysteresis thresholds on the windowed
	// conflict rate conflicts/(commits+conflicts): above adaptHi the
	// instance is contended (prefer encounter locking); below adaptLo it
	// is calm (return to tl2). The dead band between them is what keeps
	// the controller from oscillating.
	adaptHi = 0.50
	adaptLo = 0.10
	// adaptSkew marks a window as hotspot-skewed when the top slot of
	// the contention sketch absorbed at least this share of the window's
	// conflicts — the "everyone lost to the same variable" shape.
	adaptSkew = 0.75
)

// adaptState is the controller's bookkeeping. It shares a cache line
// with nothing hot: the tick is bumped only by conflicted attempts and
// everything else is touched once per adaptEvery conflicts under mu.
type adaptState struct {
	tick atomic.Uint32
	mu   sync.Mutex

	// Window baselines: the Stats readings at the last controller run.
	lastCommits   uint64
	lastConflicts uint64
	lastHot       uint64 // top contention-sketch count at the last run
}

// Strategy returns the protocol new attempts of the instance begin
// under: the engine itself for the fixed engines, and the current
// delegate (TL2 or Eager) for the Adaptive engine.
func (s *STM) Strategy() Engine {
	if s.engine != Adaptive {
		return s.engine
	}
	if s.strategy.Load() == strategyEager {
		return Eager
	}
	return TL2
}

// maybeAdapt is the controller entry point, called by every conflicted
// attempt (captureConflict / captureConflictMulti). It is a compare on
// the fixed engines, and a tick and a mask test on Adaptive until the
// window closes.
func (s *STM) maybeAdapt() {
	if s.engine != Adaptive {
		return
	}
	if s.adapt.tick.Add(1)&(adaptEvery-1) != 0 {
		return
	}
	if !s.adapt.mu.TryLock() {
		return // another loser is already retuning; skip, don't queue
	}
	defer s.adapt.mu.Unlock()

	a := &s.adapt
	commits := s.stats.Commits.Load()
	conflicts := s.stats.Conflicts.Load()
	dCommits := commits - a.lastCommits
	dConflicts := conflicts - a.lastConflicts
	a.lastCommits, a.lastConflicts = commits, conflicts

	total := dCommits + dConflicts
	if total == 0 {
		return
	}
	rate := float64(dConflicts) / float64(total)
	s.retune(rate, s.hotSkewed(dConflicts))
}

// hotSkewed reports whether the contention sketch attributes at least
// adaptSkew of the window's conflicts to a single variable. The sketch
// is cumulative, so the top slot is windowed against its reading at the
// last run; sketch counts are approximate (space-saving decay), which
// is fine — this steers a heuristic, not a ledger.
func (s *STM) hotSkewed(dConflicts uint64) bool {
	if s.metrics == nil || dConflicts == 0 {
		return false
	}
	var top uint64
	for _, e := range s.metrics.Contention.Snapshot() {
		if e.Count > top {
			top = e.Count
		}
	}
	prev := s.adapt.lastHot
	s.adapt.lastHot = top
	if top <= prev {
		return false // sketch decayed or reset; no usable window
	}
	return float64(top-prev) >= adaptSkew*float64(dConflicts)
}

// retune applies the hysteresis policy to one closed window. Split from
// maybeAdapt so tests can drive it with synthetic windows.
//
//   - Contended (rate above adaptHi, or hotspot-skewed): flip new
//     attempts to eager encounter locking, which detects the conflict at
//     the first write instead of after the whole body ran against
//     doomed state.
//   - Calm (rate below adaptLo): return to tl2.
//   - In the dead band: change nothing.
//
// It is a no-op on the fixed engines.
func (s *STM) retune(rate float64, skewed bool) {
	if s.engine != Adaptive {
		return
	}
	switch {
	case rate > adaptHi || skewed:
		s.strategy.Store(strategyEager)
	case rate < adaptLo:
		s.strategy.Store(strategyTL2)
	}
}
