package stm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffCanceledContextReturnsPromptly pins the cancellation
// contract of the backoff sleep itself: a canceled context must abort
// the wait via the ctx.Done() select instead of burning the full 4ms
// ceiling of the deep-conflict regime.
func TestBackoffCanceledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	backoff(ctx, 30) // deep-conflict regime: 4ms sleep when not canceled
	if d := time.Since(start); d >= 2*time.Millisecond {
		t.Fatalf("backoff with canceled ctx took %v, want immediate return", d)
	}
}

// TestBackoffNilContextSleeps is the control: with no context the
// deep-conflict backoff really sleeps its full duration.
func TestBackoffNilContextSleeps(t *testing.T) {
	start := time.Now()
	backoff(nil, 30)
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("backoff(nil) slept only %v, want ~4ms", d)
	}
}

// TestAtomicallyCtxDeadlineAbortsBackoff drives a permanently
// conflicting transaction deep into the 4ms-backoff regime under a
// short deadline and checks that the call honors the deadline promptly
// (well under the retry budget's worth of sleeps) with the canonical
// error chain.
func TestAtomicallyCtxDeadlineAbortsBackoff(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := s.AtomicallyCtx(ctx, func(tx *Tx) error {
				tx.Retry() // permanent conflict: every attempt backs off
				return nil
			})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			// Generous CI bound: the deadline is 40ms and one residual
			// backoff tick is 4ms; anything near a second means the
			// sleeps ignored cancellation.
			if elapsed > time.Second {
				t.Fatalf("deadline honored after %v, want prompt abort", elapsed)
			}
		})
	}
}

// TestAtomicallyMultiCtxCancelDuringBackoff cancels mid-retry on the
// multi-instance path and checks the prompt-abort contract there too.
func TestAtomicallyMultiCtxCancelDuringBackoff(t *testing.T) {
	s1 := New(WithEngine(Lazy))
	s2 := New(WithEngine(Lazy))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := AtomicallyMultiCtx(ctx, []*STM{s1, s2}, func(txs []*Tx) error {
		txs[0].Retry()
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation honored after %v, want prompt abort", elapsed)
	}
}
