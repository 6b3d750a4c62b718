package kv

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Update and View hash each declared key once and hand the hashes to the
// body in declared order (footprint.hash); the tests here pin that the
// shortcut never changes what a body reads or where it fails, whatever
// order the body reads in and whatever the pooled scratch held before.

// shardCounts are the store sizes the footprint tests run on: the default
// 16 shards, and 128, whose shard set spans two bitset words.
var shardCounts = []int{16, 128}

// spreadKeys returns n key names on distinct shards of s, spread across
// the store's 64-shard bitset words in turn.
func spreadKeys(s *Store, prefix string, n int) []string {
	words := (s.NumShards() + 63) / 64
	keys := make([]string, 0, n)
	seen := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if sh := s.ShardOf(k); !seen[sh] && sh/64 == len(keys)%words {
			seen[sh] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// outsideKey returns a key name routed to none of keys' shards.
func outsideKey(s *Store, keys []string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("outside-%d", i)
		in := false
		for _, d := range keys {
			in = in || s.ShardOf(k) == s.ShardOf(d)
		}
		if !in {
			return k
		}
	}
}

// TestFootprintBodyOrder: a body reads what Get reads in any order — the
// declared order, reversed, a key twice, an undeclared key on a declared
// shard between declared ones, a declared list holding a key twice — and
// a key outside the footprint fails the call, on every engine and on a
// shard set of one bitset word and of two.
func TestFootprintBodyOrder(t *testing.T) {
	for _, e := range kvEngines {
		for _, n := range shardCounts {
			t.Run(fmt.Sprintf("%s/%d-shards", e, n), func(t *testing.T) {
				s := New(WithShards(n), WithEngine(e))
				keys := spreadKeys(s, "k", 5)
				for i, k := range keys[:4] {
					if err := s.Set(k, []byte("v"+strconv.Itoa(i))); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.CounterAdd(keys[4], 44); err != nil {
					t.Fatal(err)
				}
				twin := sameShardName(s, keys[1], "twin")
				if err := s.Set(twin, []byte("twin")); err != nil {
					t.Fatal(err)
				}
				out := outsideKey(s, keys)
				want := map[string]string{}
				for _, k := range append([]string{twin, out}, keys...) {
					v, ok, err := s.Get(k)
					if err != nil || (!ok && k != out) {
						t.Fatalf("Get(%q) = %q, %v, %v", k, v, ok, err)
					}
					want[k] = string(v)
				}
				rev := make([]string, len(keys))
				for i, k := range keys {
					rev[len(keys)-1-i] = k
				}
				for _, c := range []struct {
					name       string
					decl, read []string
				}{
					{"in order", keys, keys},
					{"reversed", keys, rev},
					{"one key twice", keys, []string{keys[0], keys[1], keys[1], keys[2], keys[3], keys[4]}},
					{"undeclared key between", keys, []string{keys[0], twin, keys[1], keys[2], keys[3], keys[4]}},
					{"declared twice", []string{keys[0], keys[0], keys[2]}, []string{keys[0], keys[0], keys[2], keys[0]}},
				} {
					check := func(how string, got func(string) ([]byte, bool)) {
						for _, k := range c.read {
							if v, _ := got(k); string(v) != want[k] {
								t.Errorf("%s %s: read %q = %q, want %q", c.name, how, k, v, want[k])
							}
						}
					}
					if err := s.View(c.decl, func(v *ViewTxn) error {
						check("View", v.Get)
						return nil
					}); err != nil {
						t.Fatalf("%s View: %v", c.name, err)
					}
					if err := s.Update(c.decl, func(tx *Txn) error {
						check("Update", tx.Get)
						return nil
					}); err != nil {
						t.Fatalf("%s Update: %v", c.name, err)
					}
				}

				// Outside the footprint: first, after the declared keys have
				// been read, and as what the caller's slice holds once the
				// body rewrites it (the declared hashes are the call's own).
				for _, read := range [][]string{{out}, append(append([]string{}, keys...), out)} {
					err := s.View(keys, func(v *ViewTxn) error {
						for _, k := range read {
							v.Get(k)
						}
						return nil
					})
					if err == nil || !strings.Contains(err.Error(), "outside the view footprint") {
						t.Errorf("View reading %q: err = %v, want outside the view footprint", read, err)
					}
					err = s.Update(keys, func(tx *Txn) error {
						for _, k := range read {
							tx.Get(k)
						}
						return nil
					})
					if err == nil || !strings.Contains(err.Error(), "outside the transaction footprint") {
						t.Errorf("Update reading %q: err = %v, want outside the transaction footprint", read, err)
					}
				}
				decl := append([]string{}, keys...)
				err := s.Update(decl, func(tx *Txn) error {
					decl[0] = out
					tx.Set(out, []byte("lost"))
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "outside the transaction footprint") {
					t.Errorf("Update writing a rewritten declared key: err = %v, want outside the transaction footprint", err)
				}
				if v, ok, _ := s.Get(out); ok {
					t.Errorf("a failed Update left %q = %q", out, v)
				}
			})
		}
	}
}

// TestFootprintStaleScratch: the pooled op is handed back between calls on
// one goroutine, so a shard set left in its scratch would route a read to
// another shard's handle. An Update over shards A and B, then a View over
// A alone, must still fail on a B key, and the scratch must come back
// empty.
func TestFootprintStaleScratch(t *testing.T) {
	for _, e := range kvEngines {
		for _, n := range shardCounts {
			t.Run(fmt.Sprintf("%s/%d-shards", e, n), func(t *testing.T) {
				s := New(WithShards(n), WithEngine(e))
				ab := spreadKeys(s, "ab", 2)
				a, b := ab[0], ab[1]
				s.EnsureCounters(a, b)
				for i := 0; i < 8; i++ {
					if err := s.Update(ab, func(tx *Txn) error {
						tx.Add(a, 1)
						tx.Add(b, -1)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					err := s.View([]string{a}, func(v *ViewTxn) error {
						v.Counter(b)
						return nil
					})
					if err == nil || !strings.Contains(err.Error(), "outside the view footprint") {
						t.Fatalf("View over A reading B after an Update over A and B: err = %v", err)
					}
				}
				op := s.multiOps.Get().(*multiOp)
				defer s.multiOps.Put(op)
				for i, p := range op.fp.pos {
					if p != 0 {
						t.Errorf("pooled op: pos[%d] = %d, want 0", i, p)
					}
				}
				for w, bits := range op.fp.set {
					if bits != 0 {
						t.Errorf("pooled op: set[%d] = %#x, want 0", w, bits)
					}
				}
				if len(op.idxs) != 0 || len(op.stms) != 0 || len(op.fp.keys) != 0 {
					t.Errorf("pooled op: %d shards, %d instances, %d keys left", len(op.idxs), len(op.stms), len(op.fp.keys))
				}
			})
		}
	}
}

// TestFootprintRetryRestartsCursor: a View attempt that reads a key a
// concurrent CounterAdd committed after the View's bounds runs again,
// and the retried attempt reads its declared keys from the stored
// hashes from the first one on again. The add lands on keys[2] after
// the body read keys[0]: a word that moved after it was read would not
// undo the snapshot (see stm.Snap), but one not read yet is too new.
func TestFootprintRetryRestartsCursor(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithEngine(e))
			keys := spreadKeys(s, "r", 3)
			s.EnsureCounters(keys...)
			for i, k := range keys {
				if _, err := s.CounterAdd(k, int64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			attempts := 0
			var sum int64
			err := s.View(keys, func(v *ViewTxn) error {
				attempts++
				if v.fp.next != 0 {
					t.Errorf("attempt %d starts at declared key %d, want 0", attempts, v.fp.next)
				}
				sum = 0
				for i, k := range keys {
					n, _ := v.Counter(k)
					sum += n
					if i == 0 && attempts == 1 {
						done := make(chan error)
						go func() {
							_, err := s.CounterAdd(keys[2], 10)
							done <- err
						}()
						if err := <-done; err != nil {
							return err
						}
					}
				}
				if v.fp.next != len(keys) {
					t.Errorf("attempt %d: %d of %d declared keys read from stored hashes", attempts, v.fp.next, len(keys))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts != 2 {
				t.Errorf("View ran %d attempts, want 2", attempts)
			}
			if sum != 1+2+3+10 {
				t.Errorf("View summed %d, want %d", sum, 1+2+3+10)
			}
		})
	}
}

// TestFootprintConcurrent: goroutines sharing one store, and so its pool
// of footprint scratch, run 2–4-key transfers over random footprints —
// declared in random order, read in that order or reversed — beside
// 256-key audits by View and by MGet. Every audit sums to 0.
func TestFootprintConcurrent(t *testing.T) {
	const (
		workers  = 8
		accounts = 256
	)
	iters := 400
	if testing.Short() || raceEnabled {
		iters = 150
	}
	for _, e := range kvEngines {
		for _, n := range shardCounts {
			t.Run(fmt.Sprintf("%s/%d-shards", e, n), func(t *testing.T) {
				s := New(WithShards(n), WithEngine(e))
				accts := make([]string, accounts)
				for i := range accts {
					accts[i] = fmt.Sprintf("acct-%03d", i)
				}
				s.EnsureCounters(accts...)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)))
						for i := 0; i < iters; i++ {
							if i%8 == w%8 {
								if sum, err := audit(s, accts, i%16 < 8); err != nil || sum != 0 {
									t.Errorf("worker %d audit: sum %d, err %v", w, sum, err)
									return
								}
								continue
							}
							decl := make([]string, 2+rng.Intn(3))
							for j, p := range rng.Perm(accounts)[:len(decl)] {
								decl[j] = accts[p]
							}
							read := decl
							if rng.Intn(2) == 0 {
								read = make([]string, len(decl))
								for j, k := range decl {
									read[len(decl)-1-j] = k
								}
							}
							move := int64(1 + rng.Intn(9))
							if err := s.Update(decl, func(tx *Txn) error {
								for j, k := range read {
									if j == 0 {
										tx.Add(k, -move*int64(len(read)-1))
									} else {
										tx.Add(k, move)
									}
								}
								return nil
							}); err != nil {
								t.Errorf("worker %d transfer: %v", w, err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if sum, err := audit(s, accts, true); err != nil || sum != 0 {
					t.Fatalf("final audit: sum %d, err %v", sum, err)
				}
			})
		}
	}
}

// audit sums every account by one View, or by one MGet (which, when a
// commit holds a word, reads again as View does).
func audit(s *Store, accts []string, view bool) (int64, error) {
	var sum int64
	if view {
		err := s.View(accts, func(v *ViewTxn) error {
			sum = 0
			for _, k := range accts {
				n, _ := v.Counter(k)
				sum += n
			}
			return nil
		})
		return sum, err
	}
	got, err := s.MGet(accts...)
	if err != nil {
		return 0, err
	}
	for _, k := range accts {
		n, err := strconv.ParseInt(string(got[k]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("MGet %q = %q: %v", k, got[k], err)
		}
		sum += n
	}
	return sum, nil
}
