package kv

import (
	"math/bits"
	"sync/atomic"
)

// table is a shard's key table: one array of atomic entry pointers,
// open-addressed with linear probing. It is the plain structure the
// transactions sit beside. A reader loads the shard's table pointer once
// and walks a probe run with no lock and no retry; writers hold shard.mu
// and store into the array in place. Within one array a slot only ever
// goes from free to an entry to the tombstone, so a run a reader is
// walking never loses a slot under it: it finds every key linked before
// it started, and may or may not find one linked since — the staleness
// kvers bounds (see shard.find). When the slots in use would pass half
// the array, the live entries move to a fresh array that replaces the old
// one with a single pointer store; the old array is never written again,
// so a reader still inside it sees a consistent, slightly stale table.
type table struct {
	slots []atomic.Pointer[entry] // length a power of two
	shift uint                    // 64 - log2(len(slots)): a mixed hash's top bits index slots
	used  int                     // slots holding an entry or the tombstone; guarded by shard.mu
}

// tomb marks the slot of an unlinked entry: a probe run continues past it
// and it is dropped at the next rebuild. It matches no lookup — its key
// is empty and its hash is not the empty key's.
var tomb = new(entry)

// newTable returns an empty table that n keys fill to at most a third, so
// it takes half as many again before it is next rebuilt — and a table
// rebuilt because single links filled it to half comes out twice the size.
func newTable(n int) *table {
	size := 8
	for size < 3*n {
		size <<= 1
	}
	return &table{
		slots: make([]atomic.Pointer[entry], size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep FastGet allocation-free.
// Its low bits pick the shard.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// home is where hash h's probe run starts. FNV-1a's high bits barely move
// between short sequential keys (user:00000001, user:00000002, …), so
// the index is the top bits of a Fibonacci multiply, which every bit of h
// reaches.
func (t *table) home(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> t.shift }

// probe walks key's probe run and returns the slot that ends it — the one
// holding key's entry, or the first free one — with what it held. h is
// fnv1a(key). There is always a free slot: the array is never more than
// half in use.
func (t *table) probe(key string, h uint64) (*atomic.Pointer[entry], *entry) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		slot := &t.slots[i]
		if e := slot.Load(); e == nil || e.hash == h && e.key == key {
			return slot, e
		}
	}
}

func (sh *shard) lookup(key string, h uint64) *entry {
	_, e := sh.tbl.Load().probe(key, h)
	return e
}

// each calls yield for every entry linked in sh's table until yield
// returns false.
func (sh *shard) each(yield func(*entry) bool) {
	t := sh.tbl.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e != tomb && !yield(e) {
			return
		}
	}
}

// rebuild moves sh's linked entries to a fresh table sized for them plus
// n more, and publishes it. Rebuilding is also what drops tombstones, and
// so what shrinks the table after deletes. The caller holds sh.mu.
func (sh *shard) rebuild(n int) *table {
	next := newTable(int(sh.keys.Load()) + n)
	for e := range sh.each {
		slot, _ := next.probe(e.key, e.hash)
		slot.Store(e)
		next.used++
	}
	sh.tbl.Store(next)
	return next
}

// put links a fresh entry for key unless the key has one; it returns the
// entry the table holds and whether this call made it. A new entry that
// would take the slots in use past half the array goes into a rebuilt
// one, sized for the batch of keys the caller has yet to put, this one
// included — so a bulk load pays for one rebuild and not for every
// doubling on the way. The caller holds sh.mu, and touches kvers once it
// has let go of it.
func (sh *shard) put(key string, h uint64, counter, present bool, batch int) (*entry, bool) {
	t := sh.tbl.Load()
	slot, e := t.probe(key, h)
	if e != nil {
		return e, false
	}
	if 2*(t.used+1) > len(t.slots) {
		t = sh.rebuild(batch)
		slot, _ = t.probe(key, h)
	}
	e = sh.newEntry(key, h, counter, present)
	slot.Store(e)
	t.used++
	sh.keys.Add(1)
	return e, true
}

// link and linkOne are the one way into the key table: they link a fresh
// entry of the given kind for each key (routed to sh, with its hash) that
// has none, in place, in O(1) a key. link's entries are present, holding
// the kind's zero value, and of the keys that already had an entry it
// returns those whose entry is of the given kind, whatever its state,
// and the entries of the other kind; linkOne's is absent, and it returns
// the entry the table holds and whether this call made it. Both take
// only leaf locks and run no transaction, so transaction bodies may call
// them. The slot is stored before kvers is touched: see shard.find for
// what rests on that order.
func (sh *shard) link(keys []hashedKey, counter bool) (had []string, other []*entry) {
	sh.mu.Lock()
	for i, k := range keys {
		e, made := sh.put(k.key, k.hash, counter, true, len(keys)-i)
		switch {
		case made:
		case e.isCounter() == counter:
			had = append(had, k.key)
		default:
			other = append(other, e)
		}
	}
	sh.mu.Unlock()
	if len(had)+len(other) < len(keys) {
		sh.stm.Touch(sh.kvers)
	}
	return had, other
}

func (sh *shard) linkOne(key string, h uint64, counter bool) (e *entry, made bool) {
	sh.mu.Lock()
	e, made = sh.put(key, h, counter, false, 1)
	sh.mu.Unlock()
	if made {
		sh.stm.Touch(sh.kvers)
	}
	return e, made
}

// unlink removes retired entries from the table, leaving the tombstone in
// their slots. The identity check (the table still holds this entry under
// its key) keeps it from touching a successor linked since. Retired is
// permanent, so any goroutine that reads it may finish the collector's
// work; like link, unlink is safe inside a transaction body.
//
// kvers is touched before the first tombstone is stored, the reverse of
// link's order: a bounded snapshot that misses an unlinked key must find
// kvers above its bound (see shard.findS), or it could report the key
// missing beside values read before its delete committed.
func (sh *shard) unlink(items []*entry) {
	sh.mu.Lock()
	t := sh.tbl.Load()
	n := 0
	for _, e := range items {
		if slot, cur := t.probe(e.key, e.hash); cur == e {
			if n == 0 {
				sh.stm.Touch(sh.kvers)
			}
			slot.Store(tomb)
			n++
		}
	}
	sh.keys.Add(int64(-n))
	sh.mu.Unlock()
}
