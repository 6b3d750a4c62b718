package stm

import (
	"sync"
	"sync/atomic"
)

// This file contains the mixed-mode stress scenarios of DESIGN.md S1–S3:
// each reproduces a paper idiom on the real runtime and counts outcomes
// the programmer model forbids. Deterministic variants use the anomaly
// hooks to force the §3.4/§3.5 windows; probabilistic variants run the
// raw races.

// StressResult aggregates a scenario run.
type StressResult struct {
	Scenario   string
	Engine     Engine
	Fenced     bool
	Iterations int
	Violations int
}

// Privatization runs the §1 idiom:
//
//	atomic_a { if !y then x:=1 } || atomic_b { y:=1 }; [fence]; x:=2
//
// and counts executions whose final x is not 2 — forbidden in the
// programmer model, and reachable on the lazy engine without a fence via
// delayed writeback.
func Privatization(s *STM, iters int, fence bool) StressResult {
	res := StressResult{Scenario: "privatization", Engine: s.engine, Fenced: fence, Iterations: iters}
	for i := 0; i < iters; i++ {
		x := s.NewVar("x", 0)
		y := s.NewVar("y", 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = s.Atomically(func(tx *Tx) error {
				if tx.Read(y) == 0 {
					tx.Write(x, 1)
				}
				return nil
			})
		}()
		go func() {
			defer wg.Done()
			_ = s.Atomically(func(tx *Tx) error {
				tx.Write(y, 1)
				return nil
			})
			if fence {
				s.Quiesce(x)
			}
			x.Store(2)
		}()
		wg.Wait()
		if x.Load() != 2 {
			res.Violations++
		}
	}
	return res
}

// PrivatizationDeterministic forces the delayed-writeback anomaly on the
// lazy engine: transaction a validates, then blocks before writeback while
// thread 2 commits y, (optionally) fences, and performs the plain write.
// Without a fence the final value is 1 (a's stale writeback lands last);
// with a fence, Quiesce blocks until a resolves, so the final value is 2.
func PrivatizationDeterministic(s *STM, fence bool) StressResult {
	res := StressResult{Scenario: "privatization-det", Engine: s.engine, Fenced: fence, Iterations: 1}
	x := s.NewVar("x", 0)
	y := s.NewVar("y", 0)

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.WritebackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { s.WritebackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Atomically(func(tx *Tx) error {
			if tx.Read(y) == 0 {
				tx.Write(x, 1)
			}
			return nil
		})
	}()
	<-inWindow // a validated; its write of x=1 is pending
	_ = s.Atomically(func(tx *Tx) error {
		tx.Write(y, 1)
		return nil
	})
	if fence {
		// The fence must not admit the plain write while a is unresolved:
		// release a's writeback and wait for it.
		go func() { close(resume) }()
		s.Quiesce(x)
	}
	x.Store(2)
	if !fence {
		close(resume) // let a's stale writeback land after the plain write
	}
	<-done
	if x.Load() != 2 {
		res.Violations++
	}
	return res
}

// Publication runs the §1 idiom:
//
//	x:=1; atomic_a { y:=1 } || atomic_b { r:=y }; if r then q:=x
//
// and counts q=0 observations, which the model forbids even in the
// implementation model (publication has a direct dependency), so every
// engine must produce zero violations.
func Publication(s *STM, iters int) StressResult {
	res := StressResult{Scenario: "publication", Engine: s.engine, Iterations: iters}
	for i := 0; i < iters; i++ {
		x := s.NewVar("x", 0)
		y := s.NewVar("y", 0)
		var wg sync.WaitGroup
		wg.Add(2)
		violated := false
		go func() {
			defer wg.Done()
			x.Store(1)
			_ = s.Atomically(func(tx *Tx) error {
				tx.Write(y, 1)
				return nil
			})
		}()
		go func() {
			defer wg.Done()
			var r int64
			_ = s.Atomically(func(tx *Tx) error {
				r = tx.Read(y)
				return nil
			})
			if r == 1 && x.Load() == 0 {
				violated = true
			}
		}()
		wg.Wait()
		if violated {
			res.Violations++
		}
	}
	return res
}

// LostUpdateDeterministic forces the §3.4 speculative-lost-update anomaly
// on the eager engine: transaction a writes x=1 in place and aborts; its
// rollback is delayed until after a plain store x:=2, which the rollback
// then clobbers back to 0. The programmer model forbids losing the plain
// write (final x must not be 0 when read after both threads finish).
func LostUpdateDeterministic(s *STM) StressResult {
	res := StressResult{Scenario: "lost-update-det", Engine: s.engine, Iterations: 1}
	x := s.NewVar("x", 0)

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.RollbackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { s.RollbackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Atomically(func(tx *Tx) error {
			tx.Write(x, 1)
			return ErrAborted
		})
	}()
	<-inWindow // a wrote x=1 in place and is about to roll back
	x.Store(2) // plain write lands inside the window
	close(resume)
	<-done
	if x.Load() != 2 {
		res.Violations++ // the undo log restored 0, losing the plain write
	}
	return res
}

// DirtyReadDeterministic forces the §D.3 dirty-read anomaly on the eager
// engine: a plain reader observes the speculative x=1 of a transaction
// that subsequently aborts. The model forbids plain reads from aborted
// writes (WF7).
func DirtyReadDeterministic(s *STM) StressResult {
	res := StressResult{Scenario: "dirty-read-det", Engine: s.engine, Iterations: 1}
	x := s.NewVar("x", 0)

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.RollbackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { s.RollbackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Atomically(func(tx *Tx) error {
			tx.Write(x, 1)
			return ErrAborted
		})
	}()
	<-inWindow
	if x.Load() == 1 {
		res.Violations++ // dirty read of an aborted write
	}
	close(resume)
	<-done
	return res
}

// LostUpdate is the probabilistic version of LostUpdateDeterministic,
// racing a plain store against aborting transactions without hooks.
func LostUpdate(s *STM, iters int) StressResult {
	res := StressResult{Scenario: "lost-update", Engine: s.engine, Iterations: iters}
	for i := 0; i < iters; i++ {
		x := s.NewVar("x", 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = s.Atomically(func(tx *Tx) error {
				tx.Write(x, 1)
				return ErrAborted
			})
		}()
		go func() {
			defer wg.Done()
			x.Store(2)
		}()
		wg.Wait()
		if x.Load() != 2 {
			res.Violations++
		}
	}
	return res
}
