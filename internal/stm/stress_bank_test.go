package stm

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestBankStress is the GOMAXPROCS-parameterized invariant stress for
// the race job: run it with -cpu 1,4,16 and the same code path is
// exercised single-threaded, moderately parallel and oversubscribed.
// Random transfers between accounts preserve the total balance; a
// reader thread asserts the invariant transactionally throughout, on
// every engine under every parallelism level.
func TestBankStress(t *testing.T) {
	const accounts = 16
	const initial = 1000
	transfers := 400
	if testing.Short() {
		transfers = 100
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	forEachEngine(t, func(t *testing.T, s *STM) {
		acct := make([]*Var, accounts)
		for i := range acct {
			acct[i] = s.NewVar("acct", initial)
		}
		total := int64(accounts * initial)
		var transferWG, readerWG sync.WaitGroup
		stop := make(chan struct{})
		readerWG.Add(1)
		go func() { // invariant reader
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sum int64
				if err := s.AtomicallyRead(func(rtx *ReadTx) error {
					sum = 0
					for _, a := range acct {
						sum += rtx.Read(a)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if sum != total {
					t.Errorf("invariant broken mid-run: total = %d, want %d", sum, total)
					return
				}
			}
		}()
		for w := 0; w < workers; w++ {
			transferWG.Add(1)
			go func(seed int64) {
				defer transferWG.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < transfers; i++ {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					if from == to {
						to = (to + 1) % accounts
					}
					amt := int64(rng.Intn(50) + 1)
					if err := s.Atomically(func(tx *Tx) error {
						tx.Write(acct[from], tx.Read(acct[from])-amt)
						tx.Write(acct[to], tx.Read(acct[to])+amt)
						return nil
					}); err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(int64(w + 1))
		}
		transferWG.Wait()
		close(stop)
		readerWG.Wait()
		var sum int64
		if err := s.AtomicallyRead(func(rtx *ReadTx) error {
			sum = 0
			for _, a := range acct {
				sum += rtx.Read(a)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != total {
			t.Fatalf("final total = %d, want %d", sum, total)
		}
	})
}
