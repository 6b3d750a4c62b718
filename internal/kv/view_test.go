package kv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"modtx/internal/stm"
)

func TestViewBasic(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.MSet(map[string][]byte{"a": []byte("1"), "b": []byte("two")}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CounterAdd("n", 9); err != nil {
				t.Fatal(err)
			}
			// A missing key on a declared shard must read as a clean miss.
			missing := ""
			for i := 0; ; i++ {
				k := fmt.Sprintf("miss-%d", i)
				if s.ShardOf(k) == s.ShardOf("a") {
					missing = k
					break
				}
			}
			var av, bv []byte
			var nv int64
			err := s.View([]string{"a", "b", "n"}, func(v *ViewTxn) error {
				av, _ = v.Get("a")
				bv, _ = v.Get("b")
				var ok bool
				nv, ok = v.Counter("n")
				if !ok {
					t.Error("Counter(n) reported absent")
				}
				if fm, ok := v.Get("n"); !ok || string(fm) != "9" {
					t.Errorf("Get of counter inside view: %q,%v", fm, ok)
				}
				if _, ok := v.Get(missing); ok {
					t.Error("missing key reported present")
				}
				if _, ok := v.Counter("a"); ok {
					t.Error("Counter of a bytes key reported ok")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(av) != "1" || string(bv) != "two" || nv != 9 {
				t.Fatalf("view read a=%q b=%q n=%d", av, bv, nv)
			}
			if st := s.Stats(); st.ReadOnlyCommits == 0 {
				t.Errorf("read-only commits not plumbed: %v", st)
			}
		})
	}
}

func TestViewFootprint(t *testing.T) {
	s := New(WithShards(8))
	s.EnsureKeys("in")
	other := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if s.ShardOf(k) != s.ShardOf("in") {
			other = k
			break
		}
	}
	s.EnsureKeys(other)
	err := s.View([]string{"in"}, func(v *ViewTxn) error {
		v.Get(other)
		return nil
	})
	if err == nil {
		t.Fatal("out-of-footprint view read did not error")
	}
}

func TestViewCtxPreCanceled(t *testing.T) {
	s := New(WithShards(4))
	s.EnsureKeys("a", "b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.ViewCtx(ctx, []string{"a", "b"}, func(v *ViewTxn) error { return nil })
	if !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("err=%v, want stm.ErrCanceled", err)
	}
}

// TestViewConsistentAcrossShards is the read-only acceptance check:
// cross-shard transfers preserve a conserved total while View observers
// take lock-free consistent snapshots of every account.
func TestViewConsistentAcrossShards(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			const accounts = 32
			const initial = 100
			s := New(WithShards(2), WithEngine(e))
			keys := make([]string, accounts)
			for i := range keys {
				keys[i] = fmt.Sprintf("acct-%02d", i)
			}
			s.EnsureCounters(keys...)
			if err := s.Update(keys, func(tx *Txn) error {
				for _, k := range keys {
					tx.Add(k, initial)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			const total = accounts * initial

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						from := keys[(i+w)%accounts]
						to := keys[(i*7+w+13)%accounts]
						if from == to {
							continue
						}
						if err := s.Update([]string{from, to}, func(tx *Txn) error {
							tx.Add(from, -1)
							tx.Add(to, 1)
							return nil
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(w)
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
					err := s.View(keys, func(v *ViewTxn) error {
						sum = 0
						for _, k := range keys {
							n, ok := v.Counter(k)
							if !ok {
								return fmt.Errorf("account %s missing from view", k)
							}
							sum += n
						}
						return nil
					})
					if err != nil {
						obsErr <- err
						return
					}
					if sum != total {
						obsErr <- fmt.Errorf("torn view snapshot: sum=%d, want %d", sum, total)
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
		})
	}
}

// The snapshot View: its body reads through a bounded stm.Snap, takes
// no quiescence slot, and falls back to a read-only transaction. These
// tests pin what that must keep from the transaction: the body itself
// never sees half a commit, a fence that no longer waits for the View
// still cannot hand it a privatized value beside the flag that
// published it, and a held word sends it to the transaction.

// nameOnShard returns a key with prefix that routes to shard i.
func nameOnShard(s *Store, prefix string, i int) string {
	for n := 0; ; n++ {
		if k := fmt.Sprintf("%s-%d", prefix, n); s.ShardOf(k) == i {
			return k
		}
	}
}

// TestViewOpaqueAcrossShards: transfers move value only within fixed
// pairs, a_i on one shard and b_i on the next, and every View body
// checks a_i + b_i right after reading the pair — before any
// validation — yielding between the two reads so a transfer can land.
// A body that took a shard's bound at its first read of that shard,
// instead of before its first read of any, would see the new b_i
// beside the old a_i.
func TestViewOpaqueAcrossShards(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			const pairs, total = 8, 100
			s := New(WithShards(2*pairs), WithEngine(e))
			var as, bs, keys []string
			for i := range pairs {
				a, b := nameOnShard(s, fmt.Sprintf("a%d", i), 2*i), nameOnShard(s, fmt.Sprintf("b%d", i), 2*i+1)
				as, bs, keys = append(as, a), append(bs, b), append(keys, a, b)
				if _, err := s.CounterAdd(a, total); err != nil {
					t.Fatal(err)
				}
				if _, err := s.CounterAdd(b, 0); err != nil {
					t.Fatal(err)
				}
			}
			transfers := 1000
			if testing.Short() {
				transfers = 200
			}
			var writers sync.WaitGroup
			for w := range 2 {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for n := range transfers {
						i, d := (n+w)%pairs, int64(1-2*(n/pairs%2)) // back and forth
						if err := s.Update([]string{as[i], bs[i]}, func(t *Txn) error {
							t.Add(as[i], -d)
							t.Add(bs[i], d)
							return nil
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}()
			}
			// Views run while the transfers do (a View that falls back may
			// wait for them to stop: its transaction retries a too-new
			// read at once), and once more after.
			stop := make(chan struct{})
			var viewers sync.WaitGroup
			for range 2 {
				viewers.Add(1)
				go func() {
					defer viewers.Done()
					for done := false; !done; {
						select {
						case <-stop:
							done = true
						default:
						}
						err := s.View(keys, func(v *ViewTxn) error {
							for i := range pairs {
								a, _ := v.Counter(as[i])
								runtime.Gosched() // let a transfer land between the reads
								b, _ := v.Counter(bs[i])
								if a+b != total {
									return fmt.Errorf("body saw a torn pair: %s + %s = %d + %d, want %d", as[i], bs[i], a, b, total)
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			writers.Wait()
			close(stop)
			viewers.Wait()
		})
	}
}

// TestViewPrivatizeSnapshot: a View reads a flag on one shard and then
// x on another. On its first attempt, between the two reads, another
// goroutine commits flag = private, privatizes x and stores into it
// plainly. The View must return (public, old x) or (private, new x),
// never the flag from before the fence beside the value from after it.
// On the snapshot engines the privatizer finishes while the body waits
// — Quiesce does not wait for a View, which holds no slot — so it is
// Valid, finding the flag's word moved, that throws the first attempt
// away. On global-lock the View's transaction holds the shards, the
// privatizer waits for it, and the View returns (public, old x).
func TestViewPrivatizeSnapshot(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			flag, x := twoShardNames(t, s, "priv")
			if err := s.MSet(map[string][]byte{flag: []byte("public"), x: []byte("old")}); err != nil {
				t.Fatal(err)
			}
			start, done := make(chan struct{}), make(chan error, 1)
			go func() {
				<-start
				err := s.Update([]string{flag}, func(t *Txn) error {
					t.Set(flag, []byte("private"))
					return nil
				})
				if err == nil {
					var vars []*stm.TVar[[]byte]
					if vars, err = s.Privatize(x); err == nil {
						vars[0].Store([]byte("new"))
					}
				}
				done <- err
			}()
			attempts, finished := 0, false
			var f, xv []byte
			err := s.View([]string{flag, x}, func(v *ViewTxn) error {
				attempts++
				f, _ = v.Get(flag)
				if attempts == 1 {
					close(start)
					select {
					case err := <-done:
						if err != nil {
							return err
						}
						finished = true
					case <-time.After(time.Second):
					}
				}
				xv, _ = v.Get(x)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got := string(f) + "," + string(xv)
			if got != "public,old" && got != "private,new" {
				t.Fatalf("View returned (%s) after %d attempts: the flag and x from opposite sides of the fence", got, attempts)
			}
			if snapshots := e != stm.GlobalLock; finished != snapshots {
				t.Fatalf("privatizer finished inside the View's first attempt = %v, want %v", finished, snapshots)
			}
			if !finished {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("(%s) after %d attempts", got, attempts)
		})
	}
}

// TestViewSnapshotFallback: a word held across the body — by a lazy
// commit in its write-back, an eager rollback, or (global-lock) a writer
// stopped mid-body — sends the View to its read-only transaction, which
// waits the holder out and returns committed values; the snapshot
// engines first give up snapTries times, one conflict each. A panic in
// the body passes through View unchanged, and an error the body returns
// comes back as is, without validating the snapshot it read.
func TestViewSnapshotFallback(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			key, far := twoShardNames(t, s, "fb")
			if err := s.MSet(map[string][]byte{key: []byte("old"), far: []byte("far")}); err != nil {
				t.Fatal(err)
			}
			inst := s.ShardSTM(s.ShardOf(key))
			h, g := newHold(), newGate()
			errAbort := errors.New("abort")
			want := "old"
			upd := make(chan error, 1)
			switch e {
			case stm.Lazy: // a committing Set, held in its write-back
				inst.WritebackDelay = h.hook
				want = "new"
				go func() { upd <- s.Set(key, []byte("new")) }()
				<-h.held
			case stm.Eager: // a failing Update, held in its rollback
				inst.RollbackDelay = h.hook
				go func() {
					upd <- s.Update([]string{key}, func(t *Txn) error {
						t.Set(key, []byte("spec"))
						return errAbort
					})
				}()
				<-h.held
			default: // a failing Update, stopped mid-body
				go func() {
					upd <- s.Update([]string{key}, func(t *Txn) error {
						t.Set(key, []byte("spec"))
						g.pass()
						return errAbort
					})
				}()
				<-g.entered
			}
			base := inst.Snapshot().Conflicts
			got := make(chan string, 1)
			go func() {
				var k, f []byte
				err := s.View([]string{key, far}, func(v *ViewTxn) error {
					k, _ = v.Get(key)
					f, _ = v.Get(far)
					return nil
				})
				got <- fmt.Sprintf("%s %s %v", k, f, err)
			}()
			yields := 0
			waitHeld(t, got, func() bool {
				if e == stm.GlobalLock {
					yields++
					return yields > 100
				}
				// Every snapshot refused, then the transaction's park.
				return inst.Snapshot().Conflicts >= base+snapTries+1
			})
			close(h.release)
			close(g.open)
			if err := <-upd; err != nil && !errors.Is(err, errAbort) {
				t.Fatal(err)
			}
			if r, w := <-got, want+" far <nil>"; r != w {
				t.Fatalf("View = %s, want %s", r, w)
			}

			// A body error comes back as is, from the first run, though
			// the word it read moved before it returned. (Not on
			// global-lock, whose View holds the shard the Set needs.)
			runs := 0
			errBody := errors.New("body")
			err := s.View([]string{key}, func(v *ViewTxn) error {
				runs++
				v.Get(key)
				if e != stm.GlobalLock {
					if err := s.Set(key, []byte(fmt.Sprint(runs))); err != nil {
						return err
					}
				}
				return errBody
			})
			if err != errBody || runs != 1 {
				t.Fatalf("View = %v after %d runs, want the body's error after 1", err, runs)
			}

			// A panic in the body passes through unchanged. (Last: on
			// global-lock, the transaction it escapes keeps its shard.)
			type boom struct{}
			func() {
				defer func() {
					if r := recover(); r != (boom{}) {
						t.Fatalf("recovered %v, want the body's panic", r)
					}
				}()
				s.View([]string{key}, func(v *ViewTxn) error {
					v.Get(key)
					panic(boom{})
				})
				t.Fatal("View returned after its body panicked")
			}()
		})
	}
}
