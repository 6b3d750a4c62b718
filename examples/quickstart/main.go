// Quickstart: transactional variables, Atomically, retries and aborts on
// the modtx STM.
package main

import (
	"fmt"
	"sync"

	"modtx/internal/stm"
)

func main() {
	// Create an STM instance with the lazy engine (buffered writes).
	s := stm.New(stm.WithEngine(stm.Lazy))

	// Transactional variables hold int64 values.
	balance := s.NewVar("balance", 100)
	audit := s.NewVar("audit", 0)

	// A transaction reads and writes atomically; conflicting transactions
	// retry automatically.
	err := s.Atomically(func(tx *stm.Tx) error {
		b := tx.Read(balance)
		tx.Write(balance, b+50)
		tx.Write(audit, tx.Read(audit)+1)
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("after deposit: balance=%d audit=%d\n", balance.Load(), audit.Load())

	// Read-only transactions have a dedicated API that never takes write
	// locks; on the lazy engine it also commits without validation.
	var b, a int64
	_ = s.AtomicallyRead(func(r *stm.ReadTx) error {
		b, a = r.Read(balance), r.Read(audit)
		return nil
	})
	fmt.Printf("read-only snapshot: balance=%d audit=%d\n", b, a)

	// Returning stm.ErrAborted rolls the transaction back.
	err = s.Atomically(func(tx *stm.Tx) error {
		tx.Write(balance, 0)
		return stm.ErrAborted
	})
	fmt.Printf("abort returned %v; balance still %d\n", err, balance.Load())

	// Transactions from many goroutines serialize per the model: the
	// counter increments exactly once per call.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = s.Atomically(func(tx *stm.Tx) error {
					tx.Write(audit, tx.Read(audit)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	fmt.Printf("final audit=%d (want 8001), stats: %v\n", audit.Load(), s)
}
