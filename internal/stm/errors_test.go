package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMaxRetriesDiagnostics exhausts a tiny retry budget under a forced
// permanent conflict and checks both the sentinel and the *TxError
// diagnostics.
func TestMaxRetriesDiagnostics(t *testing.T) {
	for _, e := range []Engine{Lazy, Eager} {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithMaxRetries(3))
			x := s.NewVar("x", 0)
			// Hold the var permanently "locked" by corrupting its meta, so
			// every attempt conflicts. Internal representation, on purpose.
			x.meta.Store(lockedBit)
			err := s.Atomically(func(tx *Tx) error {
				tx.Write(x, 1)
				return nil
			})
			if !errors.Is(err, ErrMaxRetries) {
				t.Fatalf("err = %v, want ErrMaxRetries", err)
			}
			var txe *TxError
			if !errors.As(err, &txe) {
				t.Fatalf("err %T does not carry *TxError diagnostics", err)
			}
			if txe.Attempts != 3 || txe.Conflicts != 3 {
				t.Errorf("diagnostics: attempts=%d conflicts=%d, want 3/3", txe.Attempts, txe.Conflicts)
			}
			if txe.Engine != e || txe.Op != "atomically" {
				t.Errorf("diagnostics: engine=%v op=%q", txe.Engine, txe.Op)
			}
		})
	}
}

// TestMaxRetriesUnderRealConflicts exhausts the budget with genuine
// contention: writers hammer a var while a victim with budget 1 tries to
// commit a stale read-modify-write through a barrier that guarantees
// invalidation.
func TestMaxRetriesUnderRealConflicts(t *testing.T) {
	s := New(WithEngine(Lazy), WithMaxRetries(1))
	x := s.NewVar("x", 0)
	read := make(chan struct{})
	invalidated := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-read
		_ = s.Atomically(func(tx *Tx) error {
			tx.Write(x, 99)
			return nil
		})
		close(invalidated)
	}()
	err := s.Atomically(func(tx *Tx) error {
		v := tx.Read(x)
		select {
		case <-invalidated:
		default:
			close(read)
			<-invalidated // x is rewritten after our snapshot read
		}
		tx.Write(x, v+1)
		return nil
	})
	wg.Wait()
	if !errors.Is(err, ErrMaxRetries) {
		t.Fatalf("err = %v, want ErrMaxRetries after budget 1", err)
	}
}

// TestAtomicallyCtxCancelMidRetry cancels the context while the
// transaction is conflict-looping and checks the error taxonomy:
// errors.Is must match both ErrCanceled and context.Canceled, and the
// diagnostics must show at least one attempt.
func TestAtomicallyCtxCancelMidRetry(t *testing.T) {
	s := New(WithEngine(Lazy))
	x := s.NewVar("x", 0)
	x.meta.Store(lockedBit) // permanent conflict: the call can only end via ctx
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := s.AtomicallyCtx(ctx, func(tx *Tx) error {
		tx.Write(x, 1)
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	var txe *TxError
	if !errors.As(err, &txe) {
		t.Fatalf("err %T lacks diagnostics", err)
	}
	if txe.Attempts == 0 || txe.Conflicts == 0 {
		t.Errorf("expected retries before cancellation, got attempts=%d conflicts=%d",
			txe.Attempts, txe.Conflicts)
	}
}

// TestAtomicallyCtxDeadline uses a deadline instead of explicit cancel.
func TestAtomicallyCtxDeadline(t *testing.T) {
	s := New(WithEngine(Eager))
	x := s.NewVar("x", 0)
	x.meta.Store(lockedBit)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.AtomicallyCtx(ctx, func(tx *Tx) error {
		tx.Write(x, 1)
		return nil
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestAtomicallyCtxPreCanceled: an already-canceled context fails before
// the body ever runs.
func TestAtomicallyCtxPreCanceled(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := s.AtomicallyCtx(ctx, func(tx *Tx) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("body ran under a pre-canceled context")
	}
	var txe *TxError
	if errors.As(err, &txe) && txe.Attempts != 0 {
		t.Errorf("attempts = %d, want 0", txe.Attempts)
	}
}

// TestAtomicallyCtxCommitsNormally: a live context does not perturb the
// happy path.
func TestAtomicallyCtxCommitsNormally(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 0)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.AtomicallyCtx(ctx, func(tx *Tx) error {
			tx.Write(x, 41)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if x.Load() != 41 {
			t.Fatalf("x = %d", x.Load())
		}
	})
}

// TestAtomicallyMultiCtxCancel covers the multi-instance ctx path: a
// permanently conflicted instance forces retries until the deadline.
// Over one instance the error still names the entry point called.
func TestAtomicallyMultiCtxCancel(t *testing.T) {
	s1 := New(WithEngine(Lazy))
	s2 := New(WithEngine(Eager))
	a := s1.NewVar("a", 0)
	b := s2.NewVar("b", 0)
	b.meta.Store(lockedBit)
	for _, stms := range [][]*STM{{s1, s2}, {s2}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		err := AtomicallyMultiCtx(ctx, stms, func(txs []*Tx) error {
			if len(txs) == 2 {
				txs[0].Write(a, 1)
			}
			txs[len(txs)-1].Write(b, 1)
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d instances: err = %v, want ErrCanceled wrapping DeadlineExceeded", len(stms), err)
		}
		var txe *TxError
		if !errors.As(err, &txe) || txe.Op != "atomically-multi" {
			t.Fatalf("%d instances: diagnostics missing or wrong op: %+v", len(stms), txe)
		}
		if a.Load() != 0 {
			t.Fatalf("partial effect leaked: a=%d", a.Load())
		}
	}
}

// TestAtomicallyMultiCtxEmptyPreCanceled: the vacuous empty-instance path
// still honors the cancellation contract.
func TestAtomicallyMultiCtxEmptyPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := AtomicallyMultiCtx(ctx, nil, func(txs []*Tx) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("body ran under a pre-canceled context")
	}
}

// TestMultiMaxRetriesMixedEngines exhausts the cross-instance budget
// (taken from stms[0]) against a permanently conflicted member.
func TestMultiMaxRetriesMixedEngines(t *testing.T) {
	s1 := New(WithEngine(Lazy), WithMaxRetries(2))
	s2 := New(WithEngine(GlobalLock))
	a := s1.NewVar("a", 0)
	b := s2.NewVar("b", 0)
	a.meta.Store(lockedBit)
	err := AtomicallyMulti([]*STM{s1, s2}, func(txs []*Tx) error {
		txs[0].Write(a, 1)
		txs[1].Write(b, 1)
		return nil
	})
	if !errors.Is(err, ErrMaxRetries) {
		t.Fatalf("err = %v, want ErrMaxRetries", err)
	}
	var txe *TxError
	if !errors.As(err, &txe) || txe.Attempts != 2 {
		t.Fatalf("diagnostics: %+v, want 2 attempts", txe)
	}
	if b.Load() != 0 {
		t.Fatalf("partial effect leaked: b=%d", b.Load())
	}
}
