package kv

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"modtx/internal/stm"
)

// watchdog returns a context that fails the test (rather than hanging
// go test) if a blocking call never wakes.
func watchdog(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestWaitGetExistingKey: WaitGet on a live key behaves like Get, with
// no park at all.
func TestWaitGetExistingKey(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(4))
			if err := s.Set("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			got, err := s.WaitGet(watchdog(t), "k")
			if err != nil || string(got) != "v" {
				t.Fatalf("WaitGet = %q, %v", got, err)
			}
			if _, err := s.CounterAdd("n", 7); err != nil {
				t.Fatal(err)
			}
			got, err = s.WaitGet(watchdog(t), "n")
			if err != nil || string(got) != "7" {
				t.Fatalf("WaitGet counter = %q, %v", got, err)
			}
			if w := s.Stats().Waits; w != 0 {
				t.Fatalf("existing-key WaitGet parked %d times, want 0", w)
			}
		})
	}
}

// TestWaitGetWakesOnCreation: a WaitGet parked on a key with no entry is
// woken by the Set that creates it — the link is announced through the
// shard's keyspace version, the value by the creating commit.
func TestWaitGetWakesOnCreation(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(4))
			ctx := watchdog(t)
			got := make(chan []byte, 1)
			errc := make(chan error, 1)
			go func() {
				v, err := s.WaitGet(ctx, "born")
				errc <- err
				got <- v
			}()
			waitForParked(t, s, 1)
			if err := s.Set("born", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if v := <-got; string(v) != "hello" {
				t.Fatalf("WaitGet = %q", v)
			}
			st := s.Stats()
			if st.Waits == 0 || st.Wakeups == 0 {
				t.Fatalf("expected a park and a notified wakeup: %+v", st)
			}
		})
	}
}

// TestWaitGetAcrossDeleteAndRecreate: the waiter must survive every
// stage of a deletion and wake on the re-creation, whatever its kind.
// Parked on a collected key it waits on the keyspace version; parked on
// an entry the collector has not reached (absent) or has not finished
// with (retired, still linked) it waits on that entry's word, and the
// writer that re-creates the key either writes that word or steps over
// the entry, touching the keyspace version on the way.
func TestWaitGetAcrossDeleteAndRecreate(t *testing.T) {
	stages := []struct {
		name string
		kill func(*testing.T, *Store, string)
	}{
		{"collected", func(t *testing.T, s *Store, k string) {
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}},
		{"absent", func(t *testing.T, s *Store, k string) { deleteUncollected(t, s, k) }},
		{"retired", func(t *testing.T, s *Store, k string) { retireUnlinked(t, s, k) }},
	}
	for _, e := range stm.Engines() {
		for _, st := range stages {
			for _, counter := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/counter=%v", e, st.name, counter), func(t *testing.T) {
					s := New(WithEngine(e), WithShards(4))
					if err := s.Set("k", []byte("old")); err != nil {
						t.Fatal(err)
					}
					st.kill(t, s, "k")
					ctx := watchdog(t)
					got := make(chan []byte, 1)
					errc := make(chan error, 1)
					go func() {
						v, err := s.WaitGet(ctx, "k")
						errc <- err
						got <- v
					}()
					waitForParked(t, s, 1)
					want := "new"
					if counter {
						// Re-create as a counter: deletion freed the key's kind.
						want = "42"
						if _, err := s.CounterAdd("k", 42); err != nil {
							t.Fatal(err)
						}
					} else if err := s.Set("k", []byte("new")); err != nil {
						t.Fatal(err)
					}
					if err := <-errc; err != nil {
						t.Fatal(err)
					}
					if v := <-got; string(v) != want {
						t.Fatalf("WaitGet after recreate = %q, want %q", v, want)
					}
				})
			}
		}
	}
}

// TestWaitGetCanceled: cancellation while parked surfaces promptly as
// stm.ErrCanceled (wrapping context.Canceled), not as a conflict error.
func TestWaitGetCanceled(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(4))
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := s.WaitGet(ctx, "never")
				errc <- err
			}()
			waitForParked(t, s, 1)
			start := time.Now()
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, stm.ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
				}
				if d := time.Since(start); d > 5*time.Second {
					t.Fatalf("cancellation honored after %v", d)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("canceled WaitGet never returned")
			}
		})
	}
}

// TestWatchValueChange: Watch wakes on a value change and returns the
// new value; rewriting identical bytes does not wake it.
func TestWatchValueChange(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(4))
			if err := s.Set("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			ctx := watchdog(t)
			type res struct {
				v  []byte
				ok bool
			}
			got := make(chan res, 1)
			errc := make(chan error, 1)
			go func() {
				v, ok, err := s.Watch(ctx, "k")
				errc <- err
				got <- res{v, ok}
			}()
			waitForParked(t, s, 1)
			// Same bytes: must not satisfy the watch.
			if err := s.Set("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-got:
				t.Fatalf("watch woke on identical bytes: %q", r.v)
			case <-time.After(100 * time.Millisecond):
			}
			if err := s.Set("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if r := <-got; !r.ok || string(r.v) != "v2" {
				t.Fatalf("Watch = %q, %v", r.v, r.ok)
			}
		})
	}
}

// TestWatchDelete: Watch reports deletion as ok=false.
func TestWatchDelete(t *testing.T) {
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(4))
			if err := s.Set("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			ctx := watchdog(t)
			okc := make(chan bool, 1)
			errc := make(chan error, 1)
			go func() {
				_, ok, err := s.Watch(ctx, "k")
				errc <- err
				okc <- ok
			}()
			waitForParked(t, s, 1)
			if _, err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if ok := <-okc; ok {
				t.Fatal("Watch after delete reported ok=true")
			}
		})
	}
}

// TestWatchFromImmediate: a baseline that already disagrees with the
// current state returns without parking.
func TestWatchFromImmediate(t *testing.T) {
	s := New(WithShards(4))
	if err := s.Set("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.WatchFrom(watchdog(t), "k", []byte("stale"), true)
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("WatchFrom = %q, %v, %v", v, ok, err)
	}
	v, ok, err = s.WatchFrom(watchdog(t), "k", nil, false)
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("WatchFrom(absent baseline) = %q, %v, %v", v, ok, err)
	}
}

// TestWaitGetManyWaitersOneKey: every parked waiter of a key wakes on
// the creating commit (notification is broadcast to all registrations
// of the variable, not handed to one).
func TestWaitGetManyWaitersOneKey(t *testing.T) {
	s := New(WithShards(4))
	ctx := watchdog(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			v, err := s.WaitGet(ctx, "k")
			if err == nil && string(v) != "v" {
				err = fmt.Errorf("value %q", v)
			}
			errs <- err
		}()
	}
	waitForParked(t, s, n)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// waitForParked blocks until the store has recorded at least n parks
// (waiters registered and asleep), so tests signal only after the
// blocking side is actually parked.
func waitForParked(t *testing.T, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Waits < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitGetCreationRaceNoStall races WaitGet against the Set that
// creates the key with no park synchronization, pinning the ordering
// in shard.find: the keyspace version must be read before the table
// is re-checked, otherwise a creation whose Touch lands between
// the waiter's lookup and its kvers read strands the waiter on the
// safety-net timer (≥100ms per stall). With the correct ordering every
// round resolves in microseconds; the wall-clock bound catches a
// reintroduced window on any engine (the glock read path is the one
// that can absorb the Touch without conflicting).
func TestWaitGetCreationRaceNoStall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive race stress")
	}
	const rounds = 200
	for _, e := range stm.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e), WithShards(2))
			ctx := watchdog(t)
			start := time.Now()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("race-%d", i)
				got := make(chan error, 1)
				go func() {
					v, err := s.WaitGet(ctx, key)
					if err == nil && string(v) != "x" {
						err = fmt.Errorf("value %q", v)
					}
					got <- err
				}()
				if err := s.Set(key, []byte("x")); err != nil {
					t.Fatal(err)
				}
				if err := <-got; err != nil {
					t.Fatal(err)
				}
			}
			// 200 rounds of stall-free handoff take well under a second;
			// a re-opened race window costs ≥100ms per hit.
			if d := time.Since(start); d > 20*time.Second {
				t.Fatalf("%d rounds took %v — waiters are stalling on the safety net", rounds, d)
			}
		})
	}
}
