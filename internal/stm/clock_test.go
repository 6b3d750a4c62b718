package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClockConcurrentCounter is the contended-counter correctness check
// on every engine: the workload that would lose increments if two
// commits ever shared a write version and validation mistook one for
// the other.
func TestClockConcurrentCounter(t *testing.T) {
	const goroutines = 8
	const perG = 150
	forEachEngine(t, func(t *testing.T, s *STM) {
		c := s.NewVar("c", 0)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if err := s.Atomically(func(tx *Tx) error {
						tx.Write(c, tx.Read(c)+1)
						return nil
					}); err != nil {
						t.Errorf("increment failed: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := c.Load(); got != goroutines*perG {
			t.Errorf("counter = %d, want %d", got, goroutines*perG)
		}
	})
}

// TestMonotonicSnapshot is the dedicated snapshot-consistency test of
// the clock work: writers keep the invariant x == y while readers
// assert it transactionally. A clock variant that let a reader accept a
// write from after its snapshot (the failure mode of naive timestamp
// leasing — see clock.go) tears the pair. Read-only transactions are
// exercised too: on lazy they commit without validation, against rv
// alone, the path most sensitive to an unsound write version.
func TestMonotonicSnapshot(t *testing.T) {
	const writers = 2
	const readers = 2
	const perWriter = 200
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 0)
		y := s.NewVar("y", 0)
		var stop atomic.Bool
		var readerWG, writerWG sync.WaitGroup
		for r := 0; r < readers; r++ {
			readerWG.Add(1)
			go func(r int) {
				defer readerWG.Done()
				for !stop.Load() {
					var gx, gy int64
					var err error
					if r%2 == 0 {
						err = s.AtomicallyRead(func(rtx *ReadTx) error {
							gx, gy = rtx.Read(x), rtx.Read(y)
							return nil
						})
					} else {
						err = s.Atomically(func(tx *Tx) error {
							gx, gy = tx.Read(x), tx.Read(y)
							return nil
						})
					}
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if gx != gy {
						t.Errorf("snapshot tore: x=%d y=%d", gx, gy)
						return
					}
					runtime.Gosched() // keep writers scheduled on small GOMAXPROCS
				}
			}(r)
		}
		for w := 0; w < writers; w++ {
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				for i := 0; i < perWriter; i++ {
					if err := s.Atomically(func(tx *Tx) error {
						v := tx.Read(x) + 1
						tx.Write(x, v)
						tx.Write(y, v)
						return nil
					}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
		}
		writerWG.Wait()
		stop.Store(true)
		readerWG.Wait()
		if got := x.Load(); got != int64(writers*perWriter) {
			t.Errorf("x = %d, want %d", got, writers*perWriter)
		}
	})
}
