// Banking: a transfer workload exercising the STM under contention, with a
// mixed-mode auditor that privatizes the books with a quiescence fence
// before reading them plainly (the §5 discipline in a realistic shape).
package main

import (
	"fmt"
	"math/rand"
	"sync"

	"modtx/internal/stm"
)

const (
	accounts  = 32
	initialEa = 1000
	transfers = 4000
	workers   = 8
)

func main() {
	s := stm.New(stm.WithEngine(stm.Lazy))
	book := make([]*stm.Var, accounts)
	for i := range book {
		book[i] = s.NewVar(fmt.Sprintf("acct%d", i), initialEa)
	}
	closed := s.NewVar("closed", 0)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(50) + 1)
				_ = s.Atomically(func(tx *stm.Tx) error {
					if tx.Read(closed) == 1 {
						return stm.ErrAborted // books are closed
					}
					bal := tx.Read(book[from])
					if bal < amount {
						return stm.ErrAborted
					}
					tx.Write(book[from], bal-amount)
					tx.Write(book[to], tx.Read(book[to])+amount)
					return nil
				})
			}
		}(int64(w))
	}

	// Transactional audits run concurrently and must always see a
	// consistent total.
	auditFail := 0
	for a := 0; a < 50; a++ {
		var total int64
		_ = s.Atomically(func(tx *stm.Tx) error {
			total = 0
			for _, acct := range book {
				total += tx.Read(acct)
			}
			return nil
		})
		if total != accounts*initialEa {
			auditFail++
		}
	}
	wg.Wait()

	// Mixed-mode final audit: privatize by closing the books in a
	// transaction, quiesce, then read plainly.
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.Write(closed, 1)
		return nil
	})
	s.Quiesce(book...)
	var total int64
	for _, acct := range book {
		total += acct.Load() // plain reads: safe after the fence
	}

	fmt.Printf("engine=%v workers=%d transfers=%d\n", s.Engine(), workers, workers*transfers)
	fmt.Printf("concurrent audits failed: %d (want 0)\n", auditFail)
	fmt.Printf("final total: %d (want %d)\n", total, accounts*initialEa)
	fmt.Println(s)
}
