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

// The cross-shard crash-recovery torture test: every transaction moves
// an amount between counters on two distinct shards, so the sum over
// all counters is zero in every committed state. A cross-shard
// transaction is one log record, atomic by its framing; each round ends
// on one last transfer and then kills the log at one of three points:
// inside that record (torn: the transfer must vanish whole), after it
// (whole: it must survive whole), or anywhere in the tail, truncated or
// bit-flipped. A surviving state where one leg of a transfer applied
// without the other shows up as a nonzero sum.
//
// Runs the full grid: every engine × every durability level. (At
// wal.None nothing is promised across a crash, but whatever does
// survive must still be a commit-order prefix.) The stores run at the
// default segment size, so no rotation-triggered checkpoint writes a
// snapshot and the last record is the newest segment's last bytes.

// xtortureCtrs finds one counter key per shard, so transfers between
// two of them are genuinely cross-shard transactions.
func xtortureCtrs(s *Store) []string {
	ctr := make([]string, s.NumShards())
	missing := s.NumShards()
	for i := 0; missing > 0; i++ {
		k := fmt.Sprintf("xctr-%d", i)
		if sh := s.ShardOf(k); ctr[sh] == "" {
			ctr[sh], missing = k, missing-1
		}
	}
	return ctr
}

// xtortureKill damages the closed log at the round's kill point, given
// the size of its last record, and reports whether that record must
// survive, vanish, or either (nil) — and what it did.
func xtortureKill(t *testing.T, dir string, last int, round int, rng *rand.Rand) (survives *bool, desc string) {
	t.Helper()
	yes, no := true, false
	switch round % 3 {
	case 0:
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments: %v, %v", segs, err)
		}
		sort.Strings(segs)
		fi, err := os.Stat(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		cut := 1 + rng.Int63n(int64(last)-1)
		if err := os.Truncate(segs[len(segs)-1], fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		return &no, fmt.Sprintf("tore the last record: %d of its %d bytes cut", cut, last)
	case 1:
		return &yes, "the last record written whole"
	default:
		return nil, mangleTail(t, dir, rng)
	}
}

func TestCrossShardCrashRecoveryTorture(t *testing.T) {
	for _, eng := range stm.Engines() {
		for _, level := range []wal.Level{wal.None, wal.Batch, wal.Fsync} {
			t.Run(eng.String()+"/"+level.String(), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(0x8A2C + int64(eng)*7 + int64(level)))
				dir := t.TempDir()
				const rounds = 3
				var (
					want    map[string]int64 // what the last transfer's counters must recover to, if known
					verdict string           // "survive" or "vanish"
				)
				for round := 0; round < rounds; round++ {
					s, err := Open(
						WithShards(4),
						WithEngine(eng),
						WithDurability(dir, level),
					)
					if err != nil {
						t.Fatalf("round %d: Open: %v", round, err)
					}
					ctr := xtortureCtrs(s)

					// The recovered state must be transaction-atomic: the sum
					// over all counters is zero in every committed state, so
					// any partially surfaced transfer shows here.
					var sum int64
					for _, k := range ctr {
						v, _, _ := s.CounterGet(k)
						sum += v
					}
					if sum != 0 {
						t.Fatalf("round %d: recovered counter sum %d, want 0 — a cross-shard transfer was torn apart (recover: %+v)",
							round, sum, s.WALStats().Recover)
					}
					if want != nil {
						for k, n := range want {
							if v, _, _ := s.CounterGet(k); v != n {
								t.Fatalf("round %d: %s = %d, want %d: the last transfer did not %s whole", round, k, v, n, verdict)
							}
						}
					}

					// Transfer concurrently between random distinct shards,
					// with single-shard churn mixed in so the log holds both
					// single- and cross-shard records.
					const writers, each = 4, 15
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							r := rand.New(rand.NewSource(int64(round*writers + w)))
							for i := 0; i < each; i++ {
								a := r.Intn(len(ctr))
								b := (a + 1 + r.Intn(len(ctr)-1)) % len(ctr)
								d := int64(1 + r.Intn(9))
								keys := []string{ctr[a], ctr[b]}
								if err := s.Update(keys, func(tx *Txn) error {
									tx.Add(keys[0], -d)
									tx.Add(keys[1], d)
									return nil
								}); err != nil {
									t.Error(err)
									return
								}
								if i%3 == 0 {
									_ = s.Set(fmt.Sprintf("churn-%d-%d", w, i%4), []byte("x"))
								}
							}
						}(w)
					}
					wg.Wait()

					// The last transfer, then the kill point: the log closed
					// and damaged where the round says.
					keys := []string{ctr[0], ctr[1]}
					before := map[string]int64{}
					for _, k := range keys {
						before[k], _, _ = s.CounterGet(k)
					}
					if err := s.Update(keys, func(tx *Txn) error {
						tx.Add(keys[0], -3)
						tx.Add(keys[1], 3)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					after := map[string]int64{keys[0]: before[keys[0]] - 3, keys[1]: before[keys[1]] + 3}
					last, err := wal.AppendRecord(nil, 0, 1, []wal.Op{
						{Kind: wal.KindCounterSet, Key: keys[0]}, {Kind: wal.KindCounterSet, Key: keys[1]}})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					survives, desc := xtortureKill(t, dir, len(last), round, rng)
					t.Logf("round %d: %s", round, desc)
					switch {
					case survives == nil:
						want, verdict = nil, ""
					case *survives:
						want, verdict = after, "survive"
					default:
						want, verdict = before, "vanish"
					}
				}

				// A final clean generation: the last recovery must leave
				// logs that extend and survive a clean close intact.
				s, err := Open(WithShards(4), WithEngine(eng), WithDurability(dir, level))
				if err != nil {
					t.Fatalf("final open: %v", err)
				}
				ctr := xtortureCtrs(s)
				{
					var sum int64
					for _, k := range ctr {
						v, _, _ := s.CounterGet(k)
						sum += v
					}
					if sum != 0 {
						t.Fatalf("final open: recovered counter sum %d, want 0 (recover: %+v)", sum, s.WALStats().Recover)
					}
				}
				if err := s.Update([]string{ctr[0], ctr[1]}, func(tx *Txn) error {
					tx.Add(ctr[0], -5)
					tx.Add(ctr[1], 5)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := Open(WithShards(4), WithEngine(eng), WithDurability(dir, level))
				if err != nil {
					t.Fatalf("reopen after clean close: %v", err)
				}
				defer f.Close()
				var sum int64
				for _, k := range ctr {
					v, _, _ := f.CounterGet(k)
					sum += v
				}
				if sum != 0 {
					t.Fatalf("after clean close, counter sum %d, want 0", sum)
				}
			})
		}
	}
}
