package kv

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTableMixedRaceLitmus is the key table's own mixed-race litmus: the
// table is the plain structure the transactions sit beside, so readers
// with no lock — FastGet, and the lookups inside Get and View — run over
// 1,024 resident keys while one writer creates and deletes 200,000 other
// keys in the same shards, in batches from a hundred to fifty thousand,
// so the arrays under the readers grow, shrink and are purged of
// tombstones many times. A resident key must never be missed, and never
// answer with another key's value (each holds its own name). CI runs it
// under -race.
func TestTableMixedRaceLitmus(t *testing.T) {
	const (
		resident = 1024
		churn    = 200_000
		readers  = 2
	)
	if testing.Short() {
		t.Skip("200,000 creations and deletions")
	}
	s := New(WithShards(4))
	names := make([]string, resident)
	for i := range names {
		names[i] = fmt.Sprintf("resident:%04d", i)
		if err := s.Set(names[i], []byte(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(19, uint64(r)))
			for n := 0; !stop.Load(); n++ {
				k := names[rng.IntN(resident)]
				var v []byte
				var ok bool
				var err error
				switch n % 3 {
				case 0:
					v, ok = s.FastGet(k)
				case 1:
					v, ok, err = s.Get(k)
				default:
					k2 := names[rng.IntN(resident)]
					err = s.View([]string{k, k2}, func(vt *ViewTxn) error {
						if v2, ok2 := vt.Get(k2); !ok2 || string(v2) != k2 {
							return fmt.Errorf("View(%s) = %q,%v", k2, v2, ok2)
						}
						v, ok = vt.Get(k)
						return nil
					})
				}
				if err != nil || !ok || string(v) != k {
					t.Errorf("read %d of resident key %s = %q,%v,%v", n, k, v, ok, err)
					return
				}
			}
		}()
	}

	// The writer, watching the arrays change under it.
	tables := make([]*table, len(s.shards))
	for i, sh := range s.shards {
		tables[i] = sh.tbl.Load()
	}
	grown, purged := 0, 0
	watch := func() {
		for i, sh := range s.shards {
			if now := sh.tbl.Load(); now != tables[i] {
				if len(now.slots) > len(tables[i].slots) {
					grown++
				} else {
					purged++
				}
				tables[i] = now
			}
		}
	}
	sizes := []int{100, 1000, 10_000, 50_000}
	for made, round := 0, 0; made < churn && !t.Failed(); round++ {
		n := min(sizes[round%len(sizes)], churn-made)
		for i := made; i < made+n; i++ {
			if err := s.Set(fmt.Sprintf("churn:%06d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
			watch()
		}
		for i := made; i < made+n; i++ {
			if existed, err := s.Delete(fmt.Sprintf("churn:%06d", i)); err != nil || !existed {
				t.Fatalf("Delete(churn:%06d) = %v,%v", i, existed, err)
			}
			watch()
		}
		made += n
	}
	stop.Store(true)
	wg.Wait()
	if grown < 8 || purged < 8 {
		t.Errorf("the table was rebuilt larger %d times and same-size-or-smaller %d times; the litmus wants several of each", grown, purged)
	}
	if got := s.Len(); got != resident {
		t.Errorf("Len() = %d after the churn, want the %d resident keys", got, resident)
	}
}

// TestTableProbeRuns checks that the benchmark's key shapes spread over
// the slot array: sequential decimal suffixes are the worst case for
// FNV-1a's high bits, which is why table.home mixes before indexing
// (unmixed, user:%08d at 16 shards gives runs of 120 and a mean over 3).
// Each shard's keys go into an array filled to the half that is the most
// a reader can ever meet.
func TestTableProbeRuns(t *testing.T) {
	for _, c := range []struct {
		format string
		n      int
	}{
		{"user:%08d", 1 << 20},
		{"user:%08d", 65536},
		{"acct:%06d", 65536},
		{"hits:%06d", 65536},
	} {
		if c.n > 65536 && (testing.Short() || raceEnabled) {
			continue
		}
		for _, shards := range []int{16, 64} {
			byShard := make([][]*entry, shards)
			for i := 0; i < c.n; i++ {
				k := fmt.Sprintf(c.format, i)
				h := fnv1a(k)
				byShard[h&uint64(shards-1)] = append(byShard[h&uint64(shards-1)], &entry{key: k, hash: h})
			}
			longest, steps := 0, 0
			for _, es := range byShard {
				tbl := newTable((2*len(es) + 2) / 3) // at least twice the keys
				for _, e := range es {
					slot, _ := tbl.probe(e.key, e.hash)
					slot.Store(e)
				}
				mask := uint64(len(tbl.slots) - 1)
				for _, e := range es {
					run := 1
					for i := tbl.home(e.hash); tbl.slots[i].Load() != e; i = (i + 1) & mask {
						run++
					}
					longest = max(longest, run)
					steps += run
				}
			}
			mean := float64(steps) / float64(c.n)
			t.Logf("%s × %d at %d shards: longest probe run %d, mean %.2f", c.format, c.n, shards, longest, mean)
			if longest >= 64 || mean >= 3 {
				t.Errorf("%s × %d at %d shards: longest probe run %d (want < 64), mean %.2f (want < 3)", c.format, c.n, shards, longest, mean)
			}
		}
	}
}
