package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAtomicallyReadBasic(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 41)
		v := NewTVar(s, "v", "hello")
		var gx int64
		var gv string
		if err := s.AtomicallyRead(func(r *ReadTx) error {
			gx = r.Read(x)
			gv = ReadTVar(r, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if gx != 41 || gv != "hello" {
			t.Fatalf("read %d/%q, want 41/hello", gx, gv)
		}
		snap := s.Snapshot()
		if snap.Commits != 1 || snap.ReadOnlyCommits != 1 {
			t.Errorf("stats: commits=%d ro=%d, want 1/1", snap.Commits, snap.ReadOnlyCommits)
		}
	})
}

func TestAtomicallyReadErrorPassthrough(t *testing.T) {
	sentinel := errors.New("boom")
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 0)
		err := s.AtomicallyRead(func(r *ReadTx) error {
			_ = r.Read(x)
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
		if s.Snapshot().UserAborts != 1 {
			t.Error("user abort not counted")
		}
	})
}

func TestAtomicallyReadCtxPreCanceled(t *testing.T) {
	s := New(WithEngine(Lazy))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := AtomicallyReadMultiCtx(ctx, []*STM{s}, func(rtxs []*ReadTx) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrCanceled) || ran {
		t.Fatalf("err=%v ran=%v, want ErrCanceled and no body run", err, ran)
	}
	var txe *TxError
	if !errors.As(err, &txe) || txe.Op != "atomically-read-multi" {
		t.Fatalf("diagnostics missing or wrong op: %+v", txe)
	}
}

// TestAtomicallyReadConsistentSnapshot races read-only transactions
// against writers that keep x == y; a torn read-only snapshot would
// observe them unequal.
func TestAtomicallyReadConsistentSnapshot(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 0)
		y := s.NewVar("y", 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 300; i++ {
				_ = s.Atomically(func(tx *Tx) error {
					tx.Write(x, i)
					tx.Write(y, i)
					return nil
				})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var xv, yv int64
				if err := s.AtomicallyRead(func(r *ReadTx) error {
					xv = r.Read(x)
					yv = r.Read(y)
					return nil
				}); err != nil {
					t.Errorf("read-only snapshot failed: %v", err)
					return
				}
				if xv != yv {
					t.Errorf("torn read-only snapshot: x=%d y=%d", xv, yv)
					return
				}
			}
		}()
		wg.Wait()
	})
}

// TestTL2InvisibleReadOnly pins that no engine keeps invisible reads
// any more: the tl2 engine's read-only bodies kept no read set, and it
// was folded into lazy without them. A read-only body records every
// read on every engine, so Block always parks on a real footprint.
func TestTL2InvisibleReadOnly(t *testing.T) {
	for _, e := range engines {
		s := New(WithEngine(e))
		x := s.NewVar("x", 1)
		y := s.NewVar("y", 2)
		var recorded int
		if err := s.AtomicallyRead(func(r *ReadTx) error {
			_ = r.Read(x)
			_ = r.Read(y)
			recorded = len(r.sn.reads)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if recorded != 2 {
			t.Errorf("%v read-only: recorded=%d, want 2", e, recorded)
		}
	}
}

// TestAtomicallyReadMultiConsistency is the read-only twin of
// TestMultiNoTornCommit: transfers circulate value between two instances
// while a lock-free read-only observer checks the conserved sum.
func TestAtomicallyReadMultiConsistency(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s1 := New(WithEngine(e))
			s2 := New(WithEngine(e))
			a := s1.NewVar("a", 500)
			b := s2.NewVar("b", 500)
			stms := []*STM{s1, s2}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					amt := seed%7 + 1
					for i := 0; i < 300; i++ {
						err := AtomicallyMulti(stms, func(txs []*Tx) error {
							txs[0].Write(a, txs[0].Read(a)-amt)
							txs[1].Write(b, txs[1].Read(b)+amt)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(int64(w))
			}
			obsErr := make(chan error, 1)
			var obsWg sync.WaitGroup
			obsWg.Add(1)
			go func() {
				defer obsWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var sum int64
					err := AtomicallyReadMulti(stms, func(rtxs []*ReadTx) error {
						sum = rtxs[0].Read(a) + rtxs[1].Read(b)
						return nil
					})
					if err != nil {
						obsErr <- err
						return
					}
					if sum != 1000 {
						obsErr <- fmt.Errorf("torn read-only cross-instance snapshot: sum=%d", sum)
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			obsWg.Wait()
			select {
			case err := <-obsErr:
				t.Fatal(err)
			default:
			}
			// A quiescent final snapshot is guaranteed to commit.
			var sum int64
			if err := AtomicallyReadMulti(stms, func(rtxs []*ReadTx) error {
				sum = rtxs[0].Read(a) + rtxs[1].Read(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if sum != 1000 {
				t.Fatalf("final read-only sum=%d, want 1000", sum)
			}
			if s1.Snapshot().ReadOnlyCommits == 0 {
				t.Error("read-only multi commits not counted")
			}
		})
	}
}

func TestAtomicallyReadMultiDegenerate(t *testing.T) {
	s := New(WithEngine(Lazy))
	x := s.NewVar("x", 3)
	var got int64
	if err := AtomicallyReadMulti([]*STM{s}, func(rtxs []*ReadTx) error {
		got = rtxs[0].Read(x)
		return nil
	}); err != nil || got != 3 {
		t.Fatalf("single-instance read multi: %v, got %d", err, got)
	}
	ran := false
	if err := AtomicallyReadMulti(nil, func(rtxs []*ReadTx) error {
		ran = len(rtxs) == 0
		return nil
	}); err != nil || !ran {
		t.Fatalf("empty read multi: err=%v ran=%v", err, ran)
	}
	if err := AtomicallyReadMulti([]*STM{s, s}, func([]*ReadTx) error { return nil }); err != ErrDuplicateInstance {
		t.Fatalf("duplicate instances: err=%v, want ErrDuplicateInstance", err)
	}
}

// TestAtomicallyReadPanicReleasesInstance: a read-only body that panics
// on a global-lock instance must leave the instance usable. A read-only
// attempt that held the instance mutex, and let the panic escape
// without releasing it, would hang every later transaction.
func TestAtomicallyReadPanicReleasesInstance(t *testing.T) {
	s := New(WithEngine(GlobalLock))
	x := s.NewVar("x", 1)
	type boom struct{}
	func() {
		defer func() {
			if r := recover(); r != (boom{}) {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
		}()
		s.AtomicallyRead(func(r *ReadTx) error {
			r.Read(x)
			panic(boom{})
		})
	}()
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Tx) error {
			tx.Write(x, 2)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Atomically did not finish within 5 s after a read-only body panicked")
	}
	if got := x.Load(); got != 2 {
		t.Fatalf("x = %d, want 2", got)
	}
}
