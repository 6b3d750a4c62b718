package stm

import (
	"context"
	"hash/maphash"
)

// Transactional containers built on the Var/TVar primitives, demonstrating
// the composability that motivates STM (§7: "Transactions are motivated by
// the issues that arise with lock-based programming"). All operations run
// inside caller-supplied or self-managed transactions and compose with
// arbitrary other transactional state.

// Queue is a bounded transactional FIFO of T.
type Queue[T any] struct {
	s          *STM
	buf        []*TVar[T]
	head, tail *Var // indices modulo len(buf)
	size       *Var
}

// NewQueue creates a bounded transactional queue. (A free function because
// Go methods cannot introduce type parameters.)
func NewQueue[T any](s *STM, name string, capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("stm: queue capacity must be positive")
	}
	q := &Queue[T]{
		s:    s,
		buf:  make([]*TVar[T], capacity),
		head: s.NewVar(name, 0),
		tail: s.NewVar(name, 0),
		size: s.NewVar(name, 0),
	}
	var zero T
	for i := range q.buf {
		q.buf[i] = NewTVar(s, name, zero)
	}
	return q
}

// EnqueueTx appends v inside an existing transaction; reports false when
// the queue is full.
func (q *Queue[T]) EnqueueTx(tx *Tx, v T) bool {
	n := tx.Read(q.size)
	if int(n) == len(q.buf) {
		return false
	}
	t := tx.Read(q.tail)
	WriteT(tx, q.buf[t], v)
	tx.Write(q.tail, (t+1)%int64(len(q.buf)))
	tx.Write(q.size, n+1)
	return true
}

// DequeueTx removes the head inside an existing transaction; ok is false
// when the queue is empty.
func (q *Queue[T]) DequeueTx(tx *Tx) (v T, ok bool) {
	n := tx.Read(q.size)
	if n == 0 {
		return v, false
	}
	h := tx.Read(q.head)
	v = ReadT(tx, q.buf[h])
	var zero T
	WriteT(tx, q.buf[h], zero) // clear the slot so dequeued values are GC-able
	tx.Write(q.head, (h+1)%int64(len(q.buf)))
	tx.Write(q.size, n-1)
	return v, true
}

// Enqueue runs EnqueueTx in its own transaction.
func (q *Queue[T]) Enqueue(v T) (ok bool, err error) {
	err = q.s.Atomically(func(tx *Tx) error {
		ok = q.EnqueueTx(tx, v)
		return nil
	})
	return ok, err
}

// Dequeue runs DequeueTx in its own transaction.
func (q *Queue[T]) Dequeue() (v T, ok bool, err error) {
	err = q.s.Atomically(func(tx *Tx) error {
		v, ok = q.DequeueTx(tx)
		return nil
	})
	return v, ok, err
}

// PopWait dequeues the head, blocking while the queue is empty: the
// transaction parks on the queue's state (see Tx.Block) and is woken by
// the commit that enqueues — no polling, no lost wakeups, no CPU while
// parked. Cancel the wait through ctx; cancellation (or deadline)
// surfaces as a *TxError wrapping ErrCanceled. Multiple concurrent
// PopWaits race fairly for elements: each enqueue wakes the parked
// consumers and exactly one of them dequeues the element (the others
// re-park).
func (q *Queue[T]) PopWait(ctx context.Context) (T, error) {
	var out T
	err := q.s.AtomicallyCtx(ctx, func(tx *Tx) error {
		v, ok := q.DequeueTx(tx)
		if !ok {
			tx.Block()
		}
		out = v
		return nil
	})
	return out, err
}

// PushWait enqueues v, blocking while the queue is full — the blocking
// dual of PopWait, woken by the commit that dequeues.
func (q *Queue[T]) PushWait(ctx context.Context, v T) error {
	return q.s.AtomicallyCtx(ctx, func(tx *Tx) error {
		if !q.EnqueueTx(tx, v) {
			tx.Block()
		}
		return nil
	})
}

// Len returns the current size (its own read-only transaction).
func (q *Queue[T]) Len() (int, error) {
	var n int64
	err := q.s.Atomically(func(tx *Tx) error {
		n = tx.Read(q.size)
		return nil
	})
	return int(n), err
}

// Map is a transactional hash map with a fixed bucket count. Buckets are
// copy-on-write slices behind TVars, so operations on one bucket conflict
// only with writers of the same bucket (there is deliberately no shared
// element counter — Len sums the buckets instead), and the whole map
// composes with arbitrary other transactional state.
type Map[K comparable, V any] struct {
	s       *STM
	seed    maphash.Seed
	mask    uint64
	buckets []*TVar[[]mapPair[K, V]]
}

type mapPair[K comparable, V any] struct {
	k K
	v V
}

// NewMap creates a transactional map with the given bucket count (rounded
// up to a power of two; 0 means 16). The bucket count is fixed: sizing it
// near the expected element count keeps operations O(1).
func NewMap[K comparable, V any](s *STM, name string, buckets int) *Map[K, V] {
	if buckets <= 0 {
		buckets = 16
	}
	p := 1
	for p < buckets {
		p <<= 1
	}
	m := &Map[K, V]{
		s:       s,
		seed:    maphash.MakeSeed(),
		mask:    uint64(p - 1),
		buckets: make([]*TVar[[]mapPair[K, V]], p),
	}
	for i := range m.buckets {
		m.buckets[i] = NewTVar(s, name, []mapPair[K, V](nil))
	}
	return m
}

func (m *Map[K, V]) bucket(k K) *TVar[[]mapPair[K, V]] {
	return m.buckets[maphash.Comparable(m.seed, k)&m.mask]
}

// GetTx looks up k inside an existing transaction.
func (m *Map[K, V]) GetTx(tx *Tx, k K) (V, bool) {
	for _, p := range ReadT(tx, m.bucket(k)) {
		if p.k == k {
			return p.v, true
		}
	}
	var zero V
	return zero, false
}

// PutTx inserts or replaces k inside an existing transaction. The bucket
// slice is copied, never mutated, so committed boxes stay immutable.
func (m *Map[K, V]) PutTx(tx *Tx, k K, v V) {
	b := m.bucket(k)
	old := ReadT(tx, b)
	next := make([]mapPair[K, V], 0, len(old)+1)
	replaced := false
	for _, p := range old {
		if p.k == k {
			p.v = v
			replaced = true
		}
		next = append(next, p)
	}
	if !replaced {
		next = append(next, mapPair[K, V]{k: k, v: v})
	}
	WriteT(tx, b, next)
}

// DeleteTx removes k inside an existing transaction; reports whether the
// key was present.
func (m *Map[K, V]) DeleteTx(tx *Tx, k K) bool {
	b := m.bucket(k)
	old := ReadT(tx, b)
	for i, p := range old {
		if p.k == k {
			next := make([]mapPair[K, V], 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			WriteT(tx, b, next)
			return true
		}
	}
	return false
}

// Get runs GetTx in its own transaction.
func (m *Map[K, V]) Get(k K) (v V, ok bool, err error) {
	err = m.s.Atomically(func(tx *Tx) error {
		v, ok = m.GetTx(tx, k)
		return nil
	})
	return v, ok, err
}

// Put runs PutTx in its own transaction.
func (m *Map[K, V]) Put(k K, v V) error {
	return m.s.Atomically(func(tx *Tx) error {
		m.PutTx(tx, k, v)
		return nil
	})
}

// Delete runs DeleteTx in its own transaction.
func (m *Map[K, V]) Delete(k K) (ok bool, err error) {
	err = m.s.Atomically(func(tx *Tx) error {
		ok = m.DeleteTx(tx, k)
		return nil
	})
	return ok, err
}

// LenTx returns the element count inside an existing transaction by
// summing bucket lengths: O(buckets), but keeps disjoint-bucket writes
// conflict-free (a shared counter would serialize every insert/delete).
func (m *Map[K, V]) LenTx(tx *Tx) int {
	n := 0
	for _, b := range m.buckets {
		n += len(ReadT(tx, b))
	}
	return n
}

// Len runs LenTx in its own read-only transaction.
func (m *Map[K, V]) Len() (int, error) {
	var n int
	err := m.s.Atomically(func(tx *Tx) error {
		n = m.LenTx(tx)
		return nil
	})
	return n, err
}

// Set is a fixed-capacity transactional hash set of int64 with open
// addressing, kept on the int64 specialization. Capacity is fixed at
// creation; Add reports false when full.
type Set struct {
	s     *STM
	slots []*Var // 0 = empty; values are stored biased by +1
	count *Var
}

// NewSet creates a transactional set with the given slot capacity.
func (s *STM) NewSet(name string, capacity int) *Set {
	if capacity <= 0 {
		panic("stm: set capacity must be positive")
	}
	set := &Set{s: s, slots: make([]*Var, capacity), count: s.NewVar(name, 0)}
	for i := range set.slots {
		set.slots[i] = s.NewVar(name, 0)
	}
	return set
}

func (s *Set) probe(v int64) int {
	h := uint64(v*2654435761) % uint64(len(s.slots))
	return int(h)
}

// AddTx inserts v (must be non-negative) inside a transaction; returns
// false if the set is full. Idempotent for present values.
func (s *Set) AddTx(tx *Tx, v int64) bool {
	key := v + 1
	i := s.probe(v)
	for n := 0; n < len(s.slots); n++ {
		cur := tx.Read(s.slots[i])
		if cur == key {
			return true
		}
		if cur == 0 {
			tx.Write(s.slots[i], key)
			tx.Write(s.count, tx.Read(s.count)+1)
			return true
		}
		i = (i + 1) % len(s.slots)
	}
	return false
}

// ContainsTx reports membership inside a transaction.
func (s *Set) ContainsTx(tx *Tx, v int64) bool {
	key := v + 1
	i := s.probe(v)
	for n := 0; n < len(s.slots); n++ {
		cur := tx.Read(s.slots[i])
		if cur == key {
			return true
		}
		if cur == 0 {
			return false
		}
		i = (i + 1) % len(s.slots)
	}
	return false
}

// Add runs AddTx in its own transaction.
func (s *Set) Add(v int64) (ok bool, err error) {
	err = s.s.Atomically(func(tx *Tx) error {
		ok = s.AddTx(tx, v)
		return nil
	})
	return ok, err
}

// Contains runs ContainsTx in its own transaction.
func (s *Set) Contains(v int64) (ok bool, err error) {
	err = s.s.Atomically(func(tx *Tx) error {
		ok = s.ContainsTx(tx, v)
		return nil
	})
	return ok, err
}

// Size returns the element count.
func (s *Set) Size() (int, error) {
	var n int64
	err := s.s.Atomically(func(tx *Tx) error {
		n = tx.Read(s.count)
		return nil
	})
	return int(n), err
}
