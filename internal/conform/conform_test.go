package conform

import (
	"sync"
	"sync/atomic"
	"testing"

	"modtx/internal/core"
	"modtx/internal/stm"
)

func TestSequentialRunExplained(t *testing.T) {
	s := NewSession(stm.New(stm.WithEngine(stm.Lazy)))
	th := s.Thread()
	s.Var("x", 0)
	err := th.Atomically(func(h *TxRec) error {
		h.Write("x", 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := th.Load("x"); got != 1 {
		t.Fatalf("loaded %d", got)
	}
	x, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !x.ExplainedBy(core.Implementation) {
		t.Error("sequential run not explainable in the implementation model")
	}
	if !x.ExplainedBy(core.Programmer) {
		t.Error("sequential run not explainable in the programmer model")
	}
}

func TestPublicationRunExplained(t *testing.T) {
	// Every registered engine must produce publication runs explainable
	// in the implementation model — a new engine cannot merge without
	// passing the litmus recording.
	for _, engine := range stm.Engines() {
		testPublicationRunExplained(t, engine)
	}
}

func testPublicationRunExplained(t *testing.T, engine stm.Engine) {
	t.Run(engine.String(), func(t *testing.T) {
		s := NewSession(stm.New(stm.WithEngine(engine)))
		s.Var("x", 0)
		s.Var("y", 0)
		t1 := s.Thread()
		t2 := s.Thread()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			t1.Store("x", 1)
			_ = t1.Atomically(func(h *TxRec) error {
				h.Write("y", 1)
				return nil
			})
		}()
		go func() {
			defer wg.Done()
			var r int64
			_ = t2.Atomically(func(h *TxRec) error {
				r = h.Read("y")
				return nil
			})
			if r == 1 {
				t2.Load("x")
			}
		}()
		wg.Wait()
		x, err := s.Build()
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !x.ExplainedBy(core.Implementation) {
			t.Errorf("%v: publication run not explainable in the implementation model", engine)
		}
	})
}

// TestPrivatizationAnomalyLemma51Gap records the forced delayed-writeback
// anomaly and checks the Lemma 5.1 gap: the behaviour is explainable in
// the implementation model (it has a mixed race) but not in the programmer
// model. The write-buffering engine, lazy, exhibits it.
func TestPrivatizationAnomalyLemma51Gap(t *testing.T) {
	t.Run("lazy", func(t *testing.T) {
		testPrivatizationAnomalyLemma51Gap(t, stm.Lazy)
	})
}

func testPrivatizationAnomalyLemma51Gap(t *testing.T, engine stm.Engine) {
	eng := stm.New(stm.WithEngine(engine))
	s := NewSession(eng)
	s.Var("x", 0)
	s.Var("y", 0)
	t1 := s.Thread()
	t2 := s.Thread()

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	eng.WritebackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { eng.WritebackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = t1.Atomically(func(h *TxRec) error {
			if h.Read("y") == 0 {
				h.Write("x", 1)
			}
			return nil
		})
	}()
	<-inWindow
	_ = t2.Atomically(func(h *TxRec) error {
		h.Write("y", 1)
		return nil
	})
	t2.Store("x", 2)
	close(resume)
	<-done

	x, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !x.ExplainedBy(core.Implementation) {
		t.Error("anomaly must be explainable in the implementation model")
	}
	if x.ExplainedBy(core.Programmer) {
		t.Error("anomaly must NOT be explainable in the programmer model (HBww+Atomww)")
	}
}

// TestFencedPrivatizationExplained records the fenced idiom; the result is
// explainable in both models.
func TestFencedPrivatizationExplained(t *testing.T) {
	eng := stm.New(stm.WithEngine(stm.Lazy))
	s := NewSession(eng)
	s.Var("x", 0)
	s.Var("y", 0)
	t1 := s.Thread()
	t2 := s.Thread()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = t1.Atomically(func(h *TxRec) error {
			if h.Read("y") == 0 {
				h.Write("x", 1)
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		_ = t2.Atomically(func(h *TxRec) error {
			h.Write("y", 1)
			return nil
		})
		t2.Quiesce("x")
		t2.Store("x", 2)
	}()
	wg.Wait()
	x, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !x.ExplainedBy(core.Implementation) {
		t.Error("fenced run must be explainable in the implementation model")
	}
}

// TestDirtyReadUnexplainable records the forced eager dirty read; the
// observation matches no model trace (WF7 forbids reading aborted writes),
// surfacing as an unmatched read during Build.
func TestDirtyReadUnexplainable(t *testing.T) {
	eng := stm.New(stm.WithEngine(stm.Eager))
	s := NewSession(eng)
	s.Var("x", 0)
	t1 := s.Thread()
	t2 := s.Thread()

	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	eng.RollbackDelay = func() {
		if armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-resume
		}
	}
	defer func() { eng.RollbackDelay = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = t1.Atomically(func(h *TxRec) error {
			h.Write("x", 1)
			return stm.ErrAborted
		})
	}()
	<-inWindow
	dirty := t2.Load("x")
	close(resume)
	<-done

	if dirty != 1 {
		t.Fatalf("expected to observe the speculative value, got %d", dirty)
	}
	x, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The read matches the aborted write by value, but no model trace
	// explains it: WF7 kills every linearization.
	if x.ExplainedBy(core.Implementation) {
		t.Error("dirty read must not be explainable in the implementation model")
	}
	if x.ExplainedBy(core.Programmer) {
		t.Error("dirty read must not be explainable in the programmer model")
	}
}

func TestAmbiguousValuesRejected(t *testing.T) {
	s := NewSession(stm.New(stm.WithEngine(stm.Lazy)))
	th := s.Thread()
	s.Var("x", 0)
	th.Store("x", 7)
	th.Store("x", 7) // duplicate value: wr resolution is ambiguous
	th.Load("x")
	if _, err := s.Build(); err == nil {
		t.Fatal("expected ambiguity error")
	}
}
