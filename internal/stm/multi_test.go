package stm

import (
	"fmt"
	"sync"
	"testing"
)

// TestMultiBasic commits a write across two instances and reads it back.
func TestMultiBasic(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s1 := New(WithEngine(e))
			s2 := New(WithEngine(e))
			a := s1.NewVar("a", 10)
			b := s2.NewVar("b", 0)
			err := AtomicallyMulti([]*STM{s1, s2}, func(txs []*Tx) error {
				v := txs[0].Read(a)
				txs[0].Write(a, 0)
				txs[1].Write(b, txs[1].Read(b)+v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if a.Load() != 0 || b.Load() != 10 {
				t.Fatalf("a=%d b=%d, want 0 10", a.Load(), b.Load())
			}
			if s1.Snapshot().MultiCommits != 1 || s2.Snapshot().MultiCommits != 1 {
				t.Fatalf("multi-commit counters not plumbed: %v %v", s1.Snapshot(), s2.Snapshot())
			}
		})
	}
}

// TestMultiUserAbort checks that an error from the body rolls back every
// instance.
func TestMultiUserAbort(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s1 := New(WithEngine(e))
			s2 := New(WithEngine(e))
			a := s1.NewVar("a", 1)
			b := s2.NewVar("b", 2)
			err := AtomicallyMulti([]*STM{s1, s2}, func(txs []*Tx) error {
				txs[0].Write(a, 100)
				txs[1].Write(b, 200)
				return ErrAborted
			})
			if err != ErrAborted {
				t.Fatalf("err=%v, want ErrAborted", err)
			}
			if a.Load() != 1 || b.Load() != 2 {
				t.Fatalf("rollback failed: a=%d b=%d", a.Load(), b.Load())
			}
		})
	}
}

// TestMultiSingleAndEmpty covers the degenerate arities.
func TestMultiSingleAndEmpty(t *testing.T) {
	s := New(WithEngine(Lazy))
	x := s.NewVar("x", 0)
	if err := AtomicallyMulti([]*STM{s}, func(txs []*Tx) error {
		txs[0].Write(x, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if x.Load() != 7 {
		t.Fatalf("x=%d, want 7", x.Load())
	}
	ran := false
	if err := AtomicallyMulti(nil, func(txs []*Tx) error {
		ran = len(txs) == 0
		return nil
	}); err != nil || !ran {
		t.Fatalf("empty multi: err=%v ran=%v", err, ran)
	}
}

// TestMultiNoTornCommit hammers a two-instance transfer while observer
// transactions assert that the sum is never seen torn: a prepared-but-
// uncommitted instance must block (conflict) consistent readers.
func TestMultiNoTornCommit(t *testing.T) {
	for _, e := range engines {
		t.Run(e.String(), func(t *testing.T) {
			s1 := New(WithEngine(e))
			s2 := New(WithEngine(e))
			a := s1.NewVar("a", 500)
			b := s2.NewVar("b", 500)
			stms := []*STM{s1, s2}

			const writers = 4
			const itersPerWriter = 300
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					amt := seed%7 + 1
					for i := 0; i < itersPerWriter; i++ {
						err := AtomicallyMulti(stms, func(txs []*Tx) error {
							av := txs[0].Read(a)
							bv := txs[1].Read(b)
							txs[0].Write(a, av-amt)
							txs[1].Write(b, bv+amt)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(int64(w))
			}
			var observerErr error
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
					err := AtomicallyMulti(stms, func(txs []*Tx) error {
						sum = txs[0].Read(a) + txs[1].Read(b)
						return nil
					})
					if err != nil {
						observerErr = err
						return
					}
					if sum != 1000 {
						observerErr = errTorn(sum)
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			obsWg.Wait()
			if observerErr != nil {
				t.Fatal(observerErr)
			}
			if got := a.Load() + b.Load(); got != 1000 {
				t.Fatalf("final sum=%d, want 1000", got)
			}
		})
	}
}

type errTorn int64

func (e errTorn) Error() string { return fmt.Sprintf("torn cross-instance read: sum=%d", int64(e)) }

// TestMultiMixedEngines runs one transaction across THREE instances each
// on a different engine (lazy + eager + global-lock): transfers circulate
// value among them under contention while a cross-instance observer
// checks the conserved total, exercising the two-phase commit's
// engine-heterogeneous path.
func TestMultiMixedEngines(t *testing.T) {
	s1 := New(WithEngine(Lazy))
	s2 := New(WithEngine(Eager))
	s3 := New(WithEngine(GlobalLock))
	stms := []*STM{s1, s2, s3}
	vars := []*Var{s1.NewVar("a", 300), s2.NewVar("b", 300), s3.NewVar("c", 300)}
	const total = 900

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := (w + i) % 3
				to := (from + 1) % 3
				err := AtomicallyMulti(stms, func(txs []*Tx) error {
					txs[from].Write(vars[from], txs[from].Read(vars[from])-1)
					txs[to].Write(vars[to], txs[to].Read(vars[to])+1)
					return nil
				})
				if err != nil {
					t.Errorf("mixed-engine transfer: %v", err)
					return
				}
			}
		}()
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
			err := AtomicallyMulti(stms, func(txs []*Tx) error {
				sum = 0
				for i, v := range vars {
					sum += txs[i].Read(v)
				}
				return nil
			})
			if err != nil {
				obsErr <- err
				return
			}
			if sum != total {
				obsErr <- errTorn(sum)
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
	if got := vars[0].Load() + vars[1].Load() + vars[2].Load(); got != total {
		t.Fatalf("final sum=%d, want %d", got, total)
	}
	for i, s := range stms {
		if s.Snapshot().MultiCommits == 0 {
			t.Errorf("instance %d (%s) recorded no multi-commits", i, s.Engine())
		}
	}
}

// TestMultiDuplicateInstance checks that passing the same instance twice
// is rejected rather than self-deadlocking.
func TestMultiDuplicateInstance(t *testing.T) {
	for _, e := range engines {
		s := New(WithEngine(e))
		err := AtomicallyMulti([]*STM{s, s}, func(txs []*Tx) error { return nil })
		if err != ErrDuplicateInstance {
			t.Errorf("%s: err=%v, want ErrDuplicateInstance", e, err)
		}
	}
}

// TestMultiNoWriteSkew is the serializability regression test for the
// cross-instance commit: T1 reads b (instance 2) and writes a (instance
// 1); T2 reads a and writes b, each writing only if its read saw zero.
// Under any serial order at most one write happens; write skew (both
// writes landing) requires both transactions to validate before the other
// locks, which the whole-footprint lock-then-validate commit forbids. A
// barrier inside the first attempt forces both bodies to read before
// either commits. (GlobalLock is exempt: it takes both instance mutexes at
// begin, so the barrier itself would deadlock — and skew is impossible.)
func TestMultiNoWriteSkew(t *testing.T) {
	for _, e := range []Engine{Lazy, Eager} {
		t.Run(e.String(), func(t *testing.T) {
			for round := 0; round < 50; round++ {
				s1 := New(WithEngine(e))
				s2 := New(WithEngine(e))
				a := s1.NewVar("a", 0)
				b := s2.NewVar("b", 0)
				stms := []*STM{s1, s2}

				var barrier sync.WaitGroup
				barrier.Add(2)
				run := func(mine, other *Var, myIdx, otherIdx int) error {
					first := true
					return AtomicallyMulti(stms, func(txs []*Tx) error {
						v := txs[otherIdx].Read(other)
						if first {
							first = false
							barrier.Done()
							barrier.Wait() // both attempts hold their reads
						}
						if v == 0 {
							txs[myIdx].Write(mine, 1)
						}
						return nil
					})
				}
				var wg sync.WaitGroup
				wg.Add(2)
				var err1, err2 error
				go func() { defer wg.Done(); err1 = run(a, b, 0, 1) }()
				go func() { defer wg.Done(); err2 = run(b, a, 1, 0) }()
				wg.Wait()
				if err1 != nil || err2 != nil {
					t.Fatalf("round %d: err1=%v err2=%v", round, err1, err2)
				}
				if a.Load() == 1 && b.Load() == 1 {
					t.Fatalf("round %d: write skew — both guarded writes committed", round)
				}
			}
		})
	}
}
