package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForParks blocks until s has recorded at least n parks, so tests
// only fire their wakeup once the blocking side is really asleep.
func waitForParks(t *testing.T, s *STM, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked: %+v", s.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockWakesOnCommit is the basic contract on every engine: a body
// that Blocks on a variable parks (no spinning) and the next commit to
// that variable wakes it promptly.
func TestBlockWakesOnCommit(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			v := s.NewVar("v", 0)
			got := make(chan int64, 1)
			go func() {
				var x int64
				err := s.Atomically(func(tx *Tx) error {
					x = tx.Read(v)
					if x == 0 {
						tx.Block()
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				got <- x
			}()
			waitForParks(t, s, 1)
			start := time.Now()
			if err := s.Atomically(func(tx *Tx) error { tx.Write(v, 7); return nil }); err != nil {
				t.Fatal(err)
			}
			select {
			case x := <-got:
				if x != 7 {
					t.Fatalf("woke with %d, want 7", x)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("lost wakeup")
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("wakeup took %v, want prompt", d)
			}
			snap := s.Snapshot()
			if snap.Waits == 0 || snap.Wakeups == 0 {
				t.Errorf("stats did not record the park/wakeup: %+v", snap)
			}
		})
	}
}

// TestBlockedParkCanceledReturnsErrCanceled is the regression test for
// the cancellation contract of parked transactions: a context canceled
// while the attempt is asleep must surface as ErrCanceled (wrapping the
// context's error) — not hang, and not decay into a conflict error.
func TestBlockedParkCanceledReturnsErrCanceled(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			v := s.NewVar("v", 0)
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				errc <- s.AtomicallyCtx(ctx, func(tx *Tx) error {
					if tx.Read(v) == 0 {
						tx.Block()
					}
					return nil
				})
			}()
			waitForParks(t, s, 1)
			start := time.Now()
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", err)
				}
				if d := time.Since(start); d > 5*time.Second {
					t.Fatalf("cancellation honored after %v, want prompt", d)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("canceled park never returned")
			}
		})
	}
}

// TestBlockReadOnly: Block works from AtomicallyRead bodies too — on the
// tl2 engine the first block re-runs the body with visible reads so the
// park has a real footprint (no blind 4ms polling).
func TestBlockReadOnly(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			v := s.NewVar("v", 0)
			got := make(chan int64, 1)
			go func() {
				var x int64
				err := s.AtomicallyRead(func(r *ReadTx) error {
					x = r.Read(v)
					if x == 0 {
						r.Block()
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				got <- x
			}()
			waitForParks(t, s, 1)
			if err := s.Atomically(func(tx *Tx) error { tx.Write(v, 9); return nil }); err != nil {
				t.Fatal(err)
			}
			select {
			case x := <-got:
				if x != 9 {
					t.Fatalf("woke with %d", x)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("lost wakeup")
			}
		})
	}
}

// TestBlockMulti: a multi-instance body that blocks parks on the union
// of all instances' footprints and wakes when either side changes.
func TestBlockMulti(t *testing.T) {
	s1 := New(WithEngine(Lazy))
	s2 := New(WithEngine(TL2))
	a := s1.NewVar("a", 0)
	b := s2.NewVar("b", 0)
	for round, poke := range []func() error{
		func() error { return s1.Atomically(func(tx *Tx) error { tx.Write(a, 1); return nil }) },
		func() error { return s2.Atomically(func(tx *Tx) error { tx.Write(b, 1); return nil }) },
	} {
		a.Store(0)
		b.Store(0)
		base := s1.Snapshot().Waits
		done := make(chan error, 1)
		go func() {
			done <- AtomicallyMulti([]*STM{s1, s2}, func(txs []*Tx) error {
				if txs[0].Read(a) == 0 && txs[1].Read(b) == 0 {
					txs[0].Block()
				}
				return nil
			})
		}()
		waitForParks(t, s1, base+1) // multi parks account to stms[0]
		if err := poke(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: lost wakeup", round)
		}
	}
}

// TestNoLostWakeupStress is the litmus-style producer/consumer stress of
// the no-lost-wakeup protocol, run on every engine (and under -race in
// CI): consumers park on an almost-always-empty queue, producers commit
// items one at a time, and every item must be consumed with no deadline
// overrun. A lost wakeup deadlocks a consumer and trips the watchdog.
func TestNoLostWakeupStress(t *testing.T) {
	const (
		producers = 2
		consumers = 4
		perProd   = 500
	)
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			q := NewQueue[int](s, "q", 2) // tiny: producers block on full, consumers on empty
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var sum, count atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						v, err := q.PopWait(ctx)
						if err != nil {
							t.Errorf("consumer: %v (watchdog hit = lost wakeup?)", err)
							return
						}
						if v < 0 {
							return // poison pill
						}
						sum.Add(int64(v))
						count.Add(1)
					}
				}()
			}
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 1; i <= perProd; i++ {
						if err := q.PushWait(ctx, i); err != nil {
							t.Errorf("producer %d: %v", p, err)
							return
						}
					}
				}(p)
			}
			// Wait for all items to drain, then poison the consumers.
			for count.Load() < producers*perProd {
				if ctx.Err() != nil {
					t.Fatalf("watchdog: consumed %d of %d", count.Load(), producers*perProd)
				}
				time.Sleep(time.Millisecond)
			}
			for c := 0; c < consumers; c++ {
				if err := q.PushWait(ctx, -1); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			want := int64(producers) * perProd * (perProd + 1) / 2
			if got := sum.Load(); got != want {
				t.Fatalf("sum = %d, want %d", got, want)
			}
		})
	}
}

// TestTouchWakesWaiters: Touch stamps a fresh version (observable by a
// revalidating waiter) and wakes parks without changing the value — the
// hook kv uses for non-transactional key-table changes.
func TestTouchWakesWaiters(t *testing.T) {
	s := New()
	v := s.NewVar("v", 41)
	woken := make(chan error, 1)
	go func() {
		rounds := 0
		woken <- s.Atomically(func(tx *Tx) error {
			_ = tx.Read(v)
			if rounds++; rounds == 1 {
				tx.Block() // park once, then let the touched re-run commit
			}
			return nil
		})
	}()
	waitForParks(t, s, 1)
	s.Touch(v)
	select {
	case err := <-woken:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Touch did not wake the waiter")
	}
	if got := v.Load(); got != 41 {
		t.Fatalf("Touch changed the value: %d", got)
	}
	// The wake must have been the Touch's notification, not the parked
	// attempt's safety-net timer going off.
	if snap := s.Snapshot(); snap.Wakeups == 0 {
		t.Errorf("waiter woke without a notification: %+v", snap)
	}
}

// TestQuiesceBroadcastUnstrandsWaiters: the privatization fence wakes
// every parked transaction, so a waiter blocked on a variable that is
// about to go private re-evaluates instead of sleeping forever.
func TestQuiesceBroadcastUnstrandsWaiters(t *testing.T) {
	s := New()
	v := s.NewVar("v", 0)
	released := make(chan error, 1)
	go func() {
		saw := false
		released <- s.Atomically(func(tx *Tx) error {
			if tx.Read(v) == 0 && !saw {
				saw = true // wake (any wake) releases us on the re-run
				tx.Block()
			}
			return nil
		})
	}()
	waitForParks(t, s, 1)
	s.Quiesce(v) // fence before privatizing v: broadcasts to all waiters
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quiescence broadcast did not reach the waiter")
	}
}

// TestConflictParkFallback: a transaction that conflicts against a
// lock-holder that *aborts* receives no commit notification — the
// bounded fallback timer must still get it through. This pins the
// "backoff survives as a fallback" contract.
func TestConflictParkFallback(t *testing.T) {
	s := New(WithEngine(Eager))
	v := s.NewVar("v", 0)

	// Hold v's encounter-time lock in a transaction that aborts slowly.
	hold := make(chan struct{})
	holding := make(chan struct{})
	go func() {
		_ = s.Atomically(func(tx *Tx) error {
			tx.Write(v, 1)
			close(holding)
			<-hold
			return ErrAborted // abort: lock released with no notification
		})
	}()
	<-holding
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Tx) error {
			_ = tx.Read(v) // conflicts while the lock is held
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the reader spin into a park
	close(hold)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("conflict park outlived the aborted lock-holder (fallback missing)")
	}
}

// TestSpinThenPark pins the pause policy of the retry loops on every
// engine, single- and multi-instance: the first 8 (spinDefault)
// conflicted attempts retry without parking, and the next one parks on
// its footprint. A variable whose lock bit is held, as an in-flight
// commit would hold it, makes every attempt conflict; the global-lock
// engine reads past lock bits, so the body also retries explicitly once
// the read returns. The retry budget stops the call after the attempt
// under test.
func TestSpinThenPark(t *testing.T) {
	conflicted := func(tx *Tx, v *Var) {
		_ = tx.Read(v) // conflicts here on the lock-based engines
		tx.Retry()
	}
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			for _, tc := range []struct {
				attempts int
				parks    uint64
			}{{8, 0}, {9, 1}} {
				s := New(WithEngine(e), WithMaxRetries(tc.attempts))
				v := s.NewVar("held", 0)
				v.meta.Store(lockedBit)
				err := s.Atomically(func(tx *Tx) error { conflicted(tx, v); return nil })
				if !errors.Is(err, ErrMaxRetries) {
					t.Fatalf("%d attempts: err = %v, want ErrMaxRetries", tc.attempts, err)
				}
				if got := s.Snapshot().Waits; got != tc.parks {
					t.Errorf("Atomically, %d conflicted attempts: %d parks, want %d", tc.attempts, got, tc.parks)
				}

				lead := New(WithEngine(e), WithMaxRetries(tc.attempts))
				other := New(WithEngine(e))
				v = lead.NewVar("held", 0)
				v.meta.Store(lockedBit)
				err = AtomicallyMulti([]*STM{lead, other}, func(txs []*Tx) error {
					conflicted(txs[0], v)
					return nil
				})
				if !errors.Is(err, ErrMaxRetries) {
					t.Fatalf("multi, %d attempts: err = %v, want ErrMaxRetries", tc.attempts, err)
				}
				if got := lead.Snapshot().Waits; got != tc.parks {
					t.Errorf("AtomicallyMulti, %d conflicted attempts: %d parks, want %d", tc.attempts, got, tc.parks)
				}
			}
		})
	}
}

// TestWakePrecision: commits to unrelated variables do not wake a
// parked waiter — notification is per-variable (hashed buckets with id
// matching), not broadcast.
func TestWakePrecision(t *testing.T) {
	s := New()
	target := s.NewVar("target", 0)
	others := make([]*Var, 256) // cover every bucket, including target's
	for i := range others {
		others[i] = s.NewVar(fmt.Sprintf("other%d", i), 0)
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Tx) error {
			if tx.Read(target) == 0 {
				tx.Block()
			}
			return nil
		})
	}()
	waitForParks(t, s, 1)
	for _, o := range others {
		if err := s.Atomically(func(tx *Tx) error { tx.Write(o, 1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if w := s.Snapshot().Wakeups; w != 0 {
		t.Errorf("unrelated commits caused %d wakeups, want 0", w)
	}
	if err := s.Atomically(func(tx *Tx) error { tx.Write(target, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lost wakeup on the target variable")
	}
}
