package kv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"modtx/internal/stm"
)

// Birth is transactional: a key becomes visible exactly when the
// transaction that creates it commits. These tests gate a transaction
// body on a channel (no sleeps) and look at the store from outside
// while the creator is provably mid-body.

// gate lets a transaction body stop exactly once: the first attempt
// announces itself on entered and waits for open; re-executions run
// straight through.
type gate struct {
	entered chan struct{}
	open    chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1), open: make(chan struct{})}
}

func (g *gate) pass() {
	select {
	case g.entered <- struct{}{}:
		<-g.open
	default:
	}
}

// inPlace reports the engines whose transactional writes land in the
// variable, under a lock held until commit, while the body still runs.
// A plain read beside them may see the speculative value — the dirty
// read of the paper's §3.4, which those engines are documented to
// exhibit — and a transactional reader waits for the lock, so a bounded
// View beside a stopped writer proves nothing there. They are held to
// "absent until commit" by the rollback and post-commit checks instead.
func inPlace(e stm.Engine) bool { return e == stm.Eager || e == stm.GlobalLock }

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

// TestBirthInvisibleUntilCommit: an Update creates two counters on
// different shards and stops before returning. Until it commits, no
// reader sees either key; once it does, every reader sees both.
func TestBirthInvisibleUntilCommit(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			a, b := twoShardNames(t, s, "born")
			g := newGate()
			done := make(chan error, 1)
			go func() {
				done <- s.Update([]string{a, b}, func(tx *Txn) error {
					tx.CounterSet(a, 7)
					tx.CounterSet(b, 9)
					g.pass()
					return nil
				})
			}()
			<-g.entered

			if !inPlace(e) {
				for _, k := range []string{a, b} {
					if v, ok := s.FastCounterGet(k); ok {
						t.Errorf("FastCounterGet(%s) = %d before the creator committed", k, v)
					}
					if v, ok := s.FastGet(k); ok {
						t.Errorf("FastGet(%s) = %q before the creator committed", k, v)
					}
				}
				err := s.ViewCtx(shortCtx(t), []string{a, b}, func(v *ViewTxn) error {
					na, oka := v.Counter(a)
					nb, okb := v.Counter(b)
					if oka || okb {
						return fmt.Errorf("View sees (%d,%v) (%d,%v) before the creator committed", na, oka, nb, okb)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				if v, err := s.WaitGet(shortCtx(t), a); !errors.Is(err, stm.ErrCanceled) {
					t.Errorf("WaitGet(%s) = %q, %v before the creator committed; want it still waiting", a, v, err)
				}
			}

			close(g.open)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v, ok := s.FastCounterGet(a); !ok || v != 7 {
				t.Fatalf("after commit FastCounterGet(%s) = %d,%v", a, v, ok)
			}
			if v, err := s.WaitGet(watchdog(t), b); err != nil || string(v) != "9" {
				t.Fatalf("after commit WaitGet(%s) = %q,%v", b, v, err)
			}
		})
	}
}

// TestViewMissThenSiblingPresent: a View that found key a missing is
// stopped; a transaction creating a and b together commits; the View
// then reads b. Whatever attempt of the View commits must not report
// (a absent, b present) — a miss is a read, and the creation
// invalidates it. With rebuild, the shards are first filled to the brink,
// so the creating transaction's first link moves the table to a fresh
// array while the View still holds what it read in the old one.
// GlobalLock is left out: its View holds the store's one lock while
// stopped, so the creator cannot commit beside it.
func TestViewMissThenSiblingPresent(t *testing.T) {
	for _, e := range kvEngines {
		if e == stm.GlobalLock {
			continue
		}
		for _, c := range []struct{ cross, rebuild bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			cross, rebuild := c.cross, c.rebuild
			t.Run(fmt.Sprintf("%s/cross=%v/rebuild=%v", e, cross, rebuild), func(t *testing.T) {
				s := New(WithShards(4), WithEngine(e))
				a, b := "sib-a", sameShardName(s, "sib-a", "sib-b")
				if cross {
					a, b = twoShardNames(t, s, "sib")
				}
				sha, _ := s.route(a)
				shb, _ := s.route(b)
				if rebuild {
					fillToBrink(t, s, sha)
					fillToBrink(t, s, shb)
				}
				before := [2]*table{sha.tbl.Load(), shb.tbl.Load()}
				g := newGate()
				var oka, okb bool
				done := make(chan error, 1)
				go func() {
					done <- s.View([]string{a, b}, func(v *ViewTxn) error {
						_, oka = v.Counter(a)
						g.pass()
						_, okb = v.Counter(b)
						return nil
					})
				}()
				<-g.entered
				if err := s.Update([]string{a, b}, func(tx *Txn) error {
					tx.CounterSet(a, 1)
					tx.CounterSet(b, 1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				close(g.open)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if !oka && okb {
					t.Fatalf("View committed (a absent, b present) across the transaction that created both")
				}
				if moved := sha.tbl.Load() != before[0] && shb.tbl.Load() != before[1]; moved != rebuild {
					t.Fatalf("tables rebuilt by the creation: %v, want %v", moved, rebuild)
				}
			})
		}
	}
}

// TestFailedBirthLeavesNothing: a transaction that creates a key and
// then fails leaves the key absent on every read path.
func TestFailedBirthLeavesNothing(t *testing.T) {
	boom := errors.New("boom")
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			err := s.Update([]string{"ghost", "ghost-n"}, func(tx *Txn) error {
				tx.Set("ghost", []byte("v"))
				tx.Add("ghost-n", 3)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			for _, k := range []string{"ghost", "ghost-n"} {
				if v, ok, err := s.Get(k); err != nil || ok {
					t.Errorf("Get(%s) = %q,%v,%v after a failed creation", k, v, ok, err)
				}
				if v, ok := s.FastGet(k); ok {
					t.Errorf("FastGet(%s) = %q after a failed creation", k, v)
				}
			}
			if got, err := s.MGet("ghost", "ghost-n"); err != nil || len(got) != 0 {
				t.Errorf("MGet = %v,%v after a failed creation", got, err)
			}
			if n := s.Len(); n != 0 {
				t.Errorf("Len() = %d after a failed creation, want 0", n)
			}
			// The name is still free for either kind.
			if _, err := s.CounterAdd("ghost", 1); err != nil {
				t.Errorf("CounterAdd on the failed bytes creation's name: %v", err)
			}
			if err := s.Set("ghost-n", []byte("b")); err != nil {
				t.Errorf("Set on the failed counter creation's name: %v", err)
			}
		})
	}
}

// TestFailedBirthsDoNotGrowTheTable: 10,000 creating operations over
// distinct keys, every one failing — a counter result out of range, a
// body that returns an error after its writes, a write that meets the
// other kind after creating a sibling — leave the table the size it was:
// each hands the entries it linked to the collector on its way out.
func TestFailedBirthsDoNotGrowTheTable(t *testing.T) {
	boom := errors.New("boom")
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.Set("bytes", []byte("v")); err != nil {
				t.Fatal(err)
			}
			start := s.Len()
			for i := 0; i < 10_000; i++ {
				k, k2 := fmt.Sprintf("fail:%05d", i), fmt.Sprintf("fail:%05d/b", i)
				var err, want error
				switch i % 4 {
				case 0:
					_, err = s.CounterAdd(k, math.MinInt64)
					want = ErrCounterRange
				case 1:
					err = s.Update([]string{k, k2}, func(tx *Txn) error {
						tx.Set(k, []byte("v"))
						tx.Add(k2, 1)
						return boom
					})
					want = boom
				case 2:
					err = s.Update([]string{k, "bytes"}, func(tx *Txn) error {
						tx.Set(k, []byte("v"))
						tx.Add("bytes", 1)
						return nil
					})
					want = ErrWrongType
				default:
					err = s.Update([]string{k}, func(tx *Txn) error {
						tx.CounterSet(k, math.MinInt64+1)
						return nil
					})
					want = ErrCounterRange
				}
				if !errors.Is(err, want) {
					t.Fatalf("creation %d: err = %v, want %v", i, err, want)
				}
			}
			if n := s.Len(); n != start {
				t.Errorf("Len() = %d after 10,000 failed creations, want %d", n, start)
			}
			if v, ok, err := s.Get("bytes"); err != nil || !ok || string(v) != "v" {
				t.Errorf("bystander key = %q,%v,%v", v, ok, err)
			}
		})
	}
}

// fillToBrink creates keys in sh until the next link there must rebuild
// its table.
func fillToBrink(t *testing.T, s *Store, sh *shard) {
	t.Helper()
	for i := 0; ; i++ {
		if tbl := sh.tbl.Load(); 2*(tbl.used+1) > len(tbl.slots) {
			return
		}
		k := fmt.Sprintf("filler-%d", i)
		if s.ShardOf(k) != sh.index {
			continue
		}
		if err := s.Set(k, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// twoShardNames returns two fresh key names that route to different
// shards of s.
func twoShardNames(t *testing.T, s *Store, prefix string) (string, string) {
	t.Helper()
	a := prefix + "-0"
	for i := 1; i < 1000; i++ {
		if b := fmt.Sprintf("%s-%d", prefix, i); s.ShardOf(b) != s.ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no two names on different shards")
	return "", ""
}

// sameShardName returns a name derived from prefix that routes to the
// shard owning key.
func sameShardName(s *Store, key, prefix string) string {
	for i := 0; ; i++ {
		if n := fmt.Sprintf("%s-%d", prefix, i); s.ShardOf(n) == s.ShardOf(key) {
			return n
		}
	}
}
