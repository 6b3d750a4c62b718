package kv

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// The crash-recovery torture test: commit transactions concurrently,
// then simulate a crash by corrupting or truncating the log tail at a
// random offset, recover, and check the recovered state is a
// commit-order prefix — on every engine.
//
// The prefix witness is a per-shard invariant pair: every transaction
// on a shard increments its counter key and sets its mark key to the
// new value in the same (single-shard) transaction. Any commit-order
// prefix of that history satisfies counter == mark == number of
// transactions applied; a recovery that tore a transaction apart,
// reordered commits, or resurrected a lost suffix breaks the equality.

// torturePairs finds, for each shard, a counter key and a mark key
// routed to it, so every shard carries an invariant pair.
func torturePairs(s *Store) (ctr, mark []string) {
	ctr = make([]string, s.NumShards())
	mark = make([]string, s.NumShards())
	missing := 2 * s.NumShards()
	for i := 0; missing > 0; i++ {
		k := fmt.Sprintf("ctr-%d", i)
		if sh := s.ShardOf(k); ctr[sh] == "" {
			ctr[sh], missing = k, missing-1
		}
		m := fmt.Sprintf("mark-%d", i)
		if sh := s.ShardOf(m); mark[sh] == "" {
			mark[sh], missing = m, missing-1
		}
	}
	return ctr, mark
}

// mangleTail simulates a crash plus disk damage in a durability
// directory: with the given rng it either truncates the newest segment
// at a random offset or flips one random bit in its tail half.
// Returns a description for the failure message.
func mangleTail(t *testing.T, dir string, rng *rand.Rand) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".wal" {
			segs = append(segs, filepath.Join(dir, ent.Name()))
		}
	}
	if len(segs) == 0 {
		return "no segments"
	}
	sort.Strings(segs)
	path := segs[len(segs)-1]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	if size == 0 {
		return "empty segment"
	}
	if rng.Intn(2) == 0 {
		off := rng.Int63n(size)
		if err := os.Truncate(path, off); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("truncated %s at %d/%d", filepath.Base(path), off, size)
	}
	off := size/2 + rng.Int63n(size-size/2)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << uint(rng.Intn(8))
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("flipped a bit of %s at %d/%d", filepath.Base(path), off, size)
}

func TestCrashRecoveryTorture(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x70217 + int64(eng)))
			dir := t.TempDir()
			const rounds = 4
			var prev []int64 // previous round's recovered counters
			for round := 0; round < rounds; round++ {
				s, err := Open(
					WithShards(2),
					WithEngine(eng),
					WithDurability(dir, wal.None), // crash consistency comes from the chain, not fsync
					WithWALSegmentBytes(2048),     // small segments: corruption hits rotated files too
				)
				if err != nil {
					t.Fatalf("round %d: Open: %v", round, err)
				}
				ctr, mark := torturePairs(s)

				// Recovered state from the previous round must already
				// satisfy the invariant and not exceed what was committed.
				for sh := 0; sh < s.NumShards(); sh++ {
					c, _, _ := s.CounterGet(ctr[sh])
					mv, ok, _ := s.Get(mark[sh])
					want := ""
					if c > 0 {
						want = fmt.Sprint(c)
					} else if ok {
						t.Fatalf("round %d shard %d: mark %q exists with zero counter", round, sh, mv)
					}
					if c > 0 && string(mv) != want {
						t.Fatalf("round %d shard %d: counter %d but mark %q — not a commit prefix", round, sh, c, mv)
					}
					if prev != nil && c > prev[sh] {
						t.Fatalf("round %d shard %d: recovered counter %d exceeds committed %d", round, sh, c, prev[sh])
					}
				}

				// Commit concurrently: the invariant transactions plus
				// scratch set/delete churn for op-kind coverage.
				const writers, each = 4, 40
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							sh := (w + i) % 2
							keys := []string{ctr[sh], mark[sh]}
							if err := s.Update(keys, func(tx *Txn) error {
								n := tx.Add(keys[0], 1)
								tx.Set(keys[1], []byte(fmt.Sprint(n)))
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
							scratch := fmt.Sprintf("scratch-%d-%d", w, i%5)
							if i%3 == 0 {
								_, _ = s.Delete(scratch)
							} else {
								_ = s.Set(scratch, []byte("x"))
							}
						}
					}(w)
				}
				wg.Wait()

				prev = make([]int64, s.NumShards())
				for sh := range prev {
					prev[sh], _, _ = s.CounterGet(ctr[sh])
				}
				// Crash: no Close — the logs are simply abandoned (their
				// batchers may be mid-write; the files hold whatever made
				// it to the page cache) — then damage the tail.
				t.Logf("round %d: %s", round, mangleTail(t, dir, rng))
				_ = s.Close() // release the batchers so TempDir can clean up
			}
		})
	}
}

// TestTortureRecoveredStoreStaysUsable reopens a damaged store and
// keeps writing: recovery must leave a log that extends cleanly.
func TestTortureRecoveredStoreStaysUsable(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	s, err := Open(WithShards(2), WithDurability(dir, wal.Fsync))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Set(fmt.Sprintf("k%02d", i), []byte("first")); err != nil {
			t.Fatal(err)
		}
	}
	mangleTail(t, dir, rng)
	_ = s.Close()

	r, err := Open(WithShards(2), WithDurability(dir, wal.Fsync))
	if err != nil {
		t.Fatalf("reopen after damage: %v", err)
	}
	// Overwrite everything, close cleanly, reopen: the second
	// generation must be fully recovered.
	for i := 0; i < 100; i++ {
		if err := r.Set(fmt.Sprintf("k%02d", i), []byte("second")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(WithShards(2), WithDurability(dir, wal.Fsync))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 100; i++ {
		if v, ok, _ := f.Get(fmt.Sprintf("k%02d", i)); !ok || string(v) != "second" {
			t.Fatalf("k%02d = %q, %v", i, v, ok)
		}
	}
}
