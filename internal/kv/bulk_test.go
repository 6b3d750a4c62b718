package kv

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// The bulk paths, EnsureKeys/EnsureCounters and recovery's replay, run
// their shards through eachShard: one after another on the caller's
// processor under parallelMin keys, side by side at or above it. The
// tests here run at both sizes.
var bulkSizes = []struct {
	name string
	n    int
}{{"serial", 10}, {"parallel", parallelMin}}

// TestEachShardRunsEveryShardOnce: below and at the threshold, every
// shard index is handed out exactly once, and eachShard returns only
// after every call has.
func TestEachShardRunsEveryShardOnce(t *testing.T) {
	s := New(WithShards(64))
	for _, n := range []int{1, parallelMin} {
		calls := make([]atomic.Int32, s.NumShards())
		s.eachShard(n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("batch of %d: shard %d ran %d times, want 1", n, i, c)
			}
		}
	}
}

// TestAllocsEnsureKeys: the keys EnsureKeys creates cost one heap object
// a shard, the array their entries share. A key's nil value is the
// shared emptyBox, and the batch's routing and each shard's one table
// rebuild are spread over the keys. An entry of its own per key makes
// it 1, and a box of its own per key 2.
func TestAllocsEnsureKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 1 << 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bulk:%06d", i)
	}
	s := New(WithShards(16))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.EnsureKeys(keys...)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("EnsureKeys made %.3f heap objects a key over %d fresh keys", per, n)
	if per > 0.01 {
		t.Errorf("EnsureKeys made %.3f heap objects a key over %d fresh keys, want at most 0.01", per, n)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d after EnsureKeys of %d fresh keys", got, n)
	}
}

// TestBulkEntriesShareOneArray pins the bulk paths' layout: the entries
// one EnsureKeys, one EnsureCounters or one recovery makes on a shard
// are the consecutive 64-byte elements of one array, which the
// collector scans in address order, and an entry made by a first Set is
// an object of its own.
func TestBulkEntriesShareOneArray(t *testing.T) {
	// Free every other slot of some 64-byte spans first, so that entries
	// allocated one a key would land in those holes, a slot apart, and
	// not side by side by chance.
	holes := make([]*entry, 1<<14)
	for i := range holes {
		holes[i] = new(entry)
	}
	for i := 0; i < len(holes); i += 2 {
		holes[i] = nil
	}
	runtime.GC()
	defer runtime.KeepAlive(holes)

	for _, size := range bulkSizes {
		t.Run(size.name, func(t *testing.T) {
			opts := []Option{WithShards(4), WithDurability(t.TempDir(), wal.None)}
			s, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 2*size.n) // bytes keys, then counters
			for i := range keys {
				keys[i] = fmt.Sprintf("arr:%05d", i)
			}
			bytesKeys, counters := keys[:size.n], keys[size.n:]
			s.EnsureKeys(bytesKeys...)
			spans := oneArrayEach(t, "EnsureKeys", s, bytesKeys)
			s.EnsureCounters(counters...)
			spans = append(spans, oneArrayEach(t, "EnsureCounters", s, counters)...)

			// A key made by its first Set is an object of its own, so it lies
			// outside every array.
			for i := range 8 {
				k := fmt.Sprintf("solo:%d", i)
				if err := s.Set(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
				sh, h := s.route(k)
				a := uintptr(unsafe.Pointer(sh.lookup(k, h)))
				for _, sp := range spans {
					if sp.sh == sh && sp.first <= a && a <= sp.last {
						t.Fatalf("%s, created by Set, is an element of shard %d's bulk array", k, sh.index)
					}
				}
				keys = append(keys, k)
			}

			// Recovery replays every key of a shard into one array.
			for _, k := range bytesKeys {
				if err := s.Set(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range counters {
				if _, err := s.CounterAdd(k, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Len(); got != len(keys) {
				t.Fatalf("recovered %d keys, want %d", got, len(keys))
			}
			oneArrayEach(t, "Recover", r, keys)
		})
	}
}

// bulkSpan is where one shard's entries of one bulk call lie: the first
// and the last element of their array.
type bulkSpan struct {
	sh          *shard
	first, last uintptr
}

// oneArrayEach checks that, on every shard, the entries of keys are the
// consecutive 64-byte elements of one array, in some order, and returns
// where each shard's lie.
func oneArrayEach(t *testing.T, what string, s *Store, keys []string) []bulkSpan {
	t.Helper()
	at := make(map[*shard][]uintptr)
	for _, k := range keys {
		sh, h := s.route(k)
		e := sh.lookup(k, h)
		if e == nil {
			t.Fatalf("%s: %s has no entry", what, k)
		}
		at[sh] = append(at[sh], uintptr(unsafe.Pointer(e)))
	}
	var spans []bulkSpan
	for sh, as := range at {
		slices.Sort(as)
		for i, a := range as {
			if want := uintptr(i) * unsafe.Sizeof(entry{}); a-as[0] != want {
				t.Fatalf("%s: shard %d's entry %d of %d lies %d bytes past the first, want %d: not one array",
					what, sh.index, i, len(as), a-as[0], want)
			}
		}
		spans = append(spans, bulkSpan{sh, as[0], as[len(as)-1]})
	}
	return spans
}

// TestBulkArrayFootprint pins the retention a shared array costs. Every
// key of a deleted and collected batch takes its array with it, and the
// shards' tables shrink back once the batch's keys are gone, so the heap
// returns to its level before the batch. And a present key that a
// call meets after its first new key on a shard costs at most its
// array's unused 64-byte element.
func TestBulkArrayFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n, shards = 1 << 16, 4
	batch := func(prefix string) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s:%06d", prefix, i)
		}
		return keys
	}
	// Two collections: the first leaves sync.Pool's victims, which hold
	// the ensure's pooled transaction state, for the second.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	deleteAll := func(s *Store, keys []string) {
		t.Helper()
		for _, k := range keys {
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Len(); got != 0 {
			t.Fatalf("Len = %d after deleting every key", got)
		}
	}

	s := New(WithShards(shards))
	keys := batch("bulk")
	before := heap()
	s.EnsureKeys(keys...)
	loaded := heap()
	deleteAll(s, keys)
	after := heap()
	runtime.KeepAlive(s)
	runtime.KeepAlive(keys)
	t.Logf("%d keys: heap %d B before the batch, %+d B loaded, %+d B once deleted and collected",
		n, before, loaded-before, after-before)
	if after-before > before/50 {
		t.Errorf("the heap is %+d B above its level before the batch once every key is deleted and collected, want at most %d (2%%)",
			after-before, before/50)
	}

	// A store holding base, ensured afresh (fresh) or with every other key
	// present (mixed). Both calls create the same keys in tables with
	// room for them, so what mixed costs beyond fresh is its present keys.
	base, extra := batch("base"), batch("extra")[:n/4]
	var mixed []string
	for i, k := range extra {
		mixed = append(mixed, k, base[i])
	}
	cost := func(ensure []string) int64 {
		s := New(WithShards(shards))
		s.EnsureKeys(base...)
		h := heap()
		s.EnsureKeys(ensure...)
		grew := heap() - h
		runtime.KeepAlive(s)
		runtime.KeepAlive(ensure)
		return grew
	}
	per := float64(cost(mixed)-cost(extra)) / float64(len(extra))
	// Each shard's array is a large object, rounded up to whole 8 KiB pages.
	want := 64 + float64(shards*8<<10)/float64(len(extra))
	t.Logf("a present key in a bulk call costs %.1f heap bytes", per)
	if per > want {
		t.Errorf("a present key in a bulk call costs %.1f heap bytes, want at most %.1f (its unused element, and the array's rounding)", per, want)
	}
}

// What a key of TestEnsureBesideReadersAndWriters held before the ensure.
const (
	ensureFresh        = iota // no entry
	ensureHeldSame            // a value of the ensured kind, which it keeps
	ensureHeldOther           // a value of the other kind, which it keeps with its kind
	ensureDeletedSame         // deleted, not yet collected, its entry of the ensured kind
	ensureDeletedOther        // deleted, not yet collected, its entry of the other kind
	ensureCases
)

// TestEnsureBesideReadersAndWriters: an EnsureKeys and an EnsureCounters
// of n keys each run at once, beside a writer on every fourth key of
// both batches (Set on a key that ends as bytes, CounterAdd on one that
// ends as a counter) and beside Get and View readers of the same keys.
// Each batch mixes fresh keys, keys held as either kind and deleted keys
// not yet collected. Afterwards every key is present, as its kind, with
// the value the last acknowledged write gave it; no reader sees a value
// that no write or ensure made.
func TestEnsureBesideReadersAndWriters(t *testing.T) {
	for _, size := range bulkSizes {
		for _, eng := range stm.Engines() {
			t.Run(size.name+"/"+eng.String(), func(t *testing.T) {
				testEnsureBeside(t, eng, size.n)
			})
		}
	}
}

func testEnsureBeside(t *testing.T, eng stm.Engine, n int) {
	s := New(WithShards(16), WithEngine(eng))
	type key struct {
		name    string
		counter bool  // the kind it ends as
		base    int64 // a counter's value before the writer
		pre     bool  // a bytes key held "pre" before the ensure
		written bool  // the writer writes it once
	}
	var batch [2][]key // [0] for EnsureKeys, [1] for EnsureCounters
	for g, ensured := range []bool{false, true} {
		for i := 0; i < n; i++ {
			k := key{name: fmt.Sprintf("%c:%05d", "bc"[g], i), counter: ensured, written: i%4 == 0}
			c := i % ensureCases
			held := ensured // the kind the key holds or held before the ensure
			if c == ensureHeldOther || c == ensureDeletedOther {
				held = !ensured
			}
			if c != ensureFresh {
				var err error
				if held {
					_, err = s.CounterAdd(k.name, 7)
				} else {
					err = s.Set(k.name, []byte("pre"))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			switch c {
			case ensureHeldSame, ensureHeldOther:
				k.counter = held
				if held {
					k.base = 7
				} else {
					k.pre = true
				}
			case ensureDeletedSame, ensureDeletedOther:
				deleteUncollected(t, s, k.name)
			}
			batch[g] = append(batch[g], k)
		}
	}
	allowed := func(k string, v []byte) bool {
		switch string(v) {
		case "", "pre", "w:" + k, "0", "1", "7", "8":
			return true
		}
		return false
	}

	start := make(chan struct{})
	var work sync.WaitGroup
	for g := range batch {
		names := make([]string, n)
		for i, k := range batch[g] {
			names[i] = k.name
		}
		work.Add(2)
		go func() { // the ensure
			defer work.Done()
			<-start
			if g == 0 {
				s.EnsureKeys(names...)
			} else {
				s.EnsureCounters(names...)
			}
		}()
		go func() { // the writer
			defer work.Done()
			<-start
			for _, k := range batch[g] {
				if !k.written {
					continue
				}
				var err error
				if k.counter {
					_, err = s.CounterAdd(k.name, 1)
				} else {
					err = s.Set(k.name, []byte("w:"+k.name))
				}
				if err != nil {
					t.Errorf("write %s: %v", k.name, err)
					return
				}
			}
		}()
	}
	var audit []string // a View's keys: spread over both batches and every shard
	for g := range batch {
		for i := 0; i < n; i += max(1, n/128) {
			audit = append(audit, batch[g][i].name)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // Get over every key, round after round
		defer readers.Done()
		for {
			for g := range batch {
				for _, k := range batch[g] {
					if v, ok, err := s.Get(k.name); err != nil || ok && !allowed(k.name, v) {
						t.Errorf("Get(%s) beside the ensure = %q, %v, %v", k.name, v, ok, err)
						return
					}
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	go func() { // a View of the audit keys, again and again
		defer readers.Done()
		for {
			err := s.View(audit, func(tx *ViewTxn) error {
				for _, k := range audit {
					if v, ok := tx.Get(k); ok && !allowed(k, v) {
						return fmt.Errorf("View read %s = %q", k, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("View beside the ensure: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(start)
	work.Wait()
	close(stop)
	readers.Wait()

	for g := range batch {
		for _, k := range batch[g] {
			sh, h := s.route(k.name)
			e := sh.lookup(k.name, h)
			if e == nil || e.isCounter() != k.counter {
				t.Fatalf("%s: entry %v after the ensure, want one of kind counter=%v", k.name, e, k.counter)
			}
			v, ok, err := s.Get(k.name)
			want := ""
			switch {
			case k.counter && k.written:
				want = strconv.FormatInt(k.base+1, 10)
			case k.counter:
				want = strconv.FormatInt(k.base, 10)
			case k.written:
				want = "w:" + k.name
			case k.pre:
				want = "pre"
			}
			if err != nil || !ok || string(v) != want {
				t.Fatalf("%s = %q, %v, %v after the ensure, want %q", k.name, v, ok, err, want)
			}
		}
	}
}

// TestEnsureFreesDeletedOtherKind: keys whose names are held by deleted,
// not yet collected entries of the other kind become present as the
// ensured kind, and the ensure's transaction fails on none of them: a
// failure with ErrWrongType reruns it over the whole batch, so the
// shards' aborted attempts must stay a handful, not one a key. Live
// keys of the other kind keep their kind and value.
func TestEnsureFreesDeletedOtherKind(t *testing.T) {
	const n = 500
	for _, counter := range []bool{false, true} {
		s := New(WithShards(16))
		var keys []string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k:%04d", i)
			var err error
			if counter {
				err = s.Set(k, []byte("pre"))
			} else {
				_, err = s.CounterAdd(k, 7)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%10 != 0 {
				deleteUncollected(t, s, k) // every tenth stays live
			}
			keys = append(keys, k)
		}
		before := s.Stats()
		if counter {
			s.EnsureCounters(keys...)
		} else {
			s.EnsureKeys(keys...)
		}
		after := s.Stats()
		if d := after.UserAborts + after.Conflicts - before.UserAborts - before.Conflicts; d > 4 {
			t.Errorf("counter=%v: ensuring %d keys deleted from the other kind cost %d aborted attempts", counter, n-n/10, d)
		}
		for i, k := range keys {
			sh, h := s.route(k)
			e := sh.lookup(k, h)
			live := i%10 == 0
			if e == nil || e.isCounter() != (counter != live) {
				t.Fatalf("counter=%v: %s has entry %v after the ensure", counter, k, e)
			}
			var want string
			switch {
			case live && counter: // a bytes key, kept
				want = "pre"
			case live:
				want = "7"
			case counter:
				want = "0"
			}
			if v, ok, err := s.Get(k); err != nil || !ok || string(v) != want {
				t.Fatalf("counter=%v: %s = %q, %v, %v after the ensure, want %q", counter, k, v, ok, err, want)
			}
		}
	}
}

// TestRecoverEqualsLiveStore: a durable store of n keys takes sets,
// counter adds, deletes and a change of kind each way, a Checkpoint,
// and a log tail after it; reopened, it holds exactly what the live
// store held before Close — every key, its kind and its value.
func TestRecoverEqualsLiveStore(t *testing.T) {
	for _, size := range bulkSizes {
		t.Run(size.name, func(t *testing.T) {
			opts := []Option{WithShards(16), WithDurability(t.TempDir(), wal.None)}
			s, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, size.n)
			for i := range keys {
				keys[i] = fmt.Sprintf("dur:%05d", i)
			}
			// Before the checkpoint, and in the tail after it.
			phases := [2]func(i int, k string) error{
				func(i int, k string) error {
					switch i % 6 {
					case 0, 2, 3, 5:
						if err := s.Set(k, []byte(k+"@1")); err != nil {
							return err
						}
					case 1, 4:
						_, err := s.CounterAdd(k, int64(i))
						return err
					}
					if i%6 == 3 || i%6 == 5 {
						_, err := s.Delete(k)
						return err
					}
					return nil
				},
				func(i int, k string) error {
					var err error
					switch i % 6 {
					case 0:
						err = s.Set(k, []byte(k+"@2"))
					case 1, 3: // 3: bytes, deleted, now a counter
						_, err = s.CounterAdd(k, 5)
					case 2:
						_, err = s.Delete(k)
					case 4: // a counter, deleted, now bytes
						if _, err = s.Delete(k); err == nil {
							err = s.Set(k, []byte(k+"@2"))
						}
					}
					return err
				},
			}
			for p, phase := range phases {
				if p == 1 {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				for i, k := range keys {
					if err := phase(i, k); err != nil {
						t.Fatalf("%s: %v", k, err)
					}
				}
			}
			live, want := contents(s), 0
			for i := range keys {
				if i%6 != 2 && i%6 != 5 {
					want++
				}
			}
			if len(live) != want {
				t.Fatalf("the live store holds %d keys, want %d", len(live), want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if info := r.WALStats().Recover; info.Snapshots != 1 || info.Records == 0 {
				t.Fatalf("recovery did not start from the checkpoint and replay a tail: %+v", info)
			}
			if got := contents(r); !maps.Equal(got, live) {
				diff := 0
				for k, v := range live {
					if got[k] != v && diff < 5 {
						t.Errorf("%s: recovered %q, live %q", k, got[k], v)
						diff++
					}
				}
				t.Fatalf("the recovered store differs from the live one (%d keys recovered, %d live)", len(got), len(live))
			}
		})
	}
}

// contents is every key s holds, read plainly, as "b:<value>" for a
// bytes key and "c:<n>" for a counter. Nothing may write s meanwhile.
func contents(s *Store) map[string]string {
	m := make(map[string]string)
	for _, sh := range s.shards {
		for e := range sh.each {
			if e.isCounter() {
				if n := e.c.Load(); countState(n) == live {
					m[e.key] = "c:" + strconv.FormatInt(n, 10)
				}
			} else if box := e.b.LoadBox(); bytesState(box) == live {
				m[e.key] = "b:" + string(*box)
			}
		}
	}
	return m
}
