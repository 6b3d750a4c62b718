package kv

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"modtx/internal/wal"
)

// The changefeed: Subscribe taps the same commit stream the durability
// log rides (durable.go), so subscribers observe every committed write
// in LSN order — with or without durability configured (the first
// Subscribe on a non-durable store lazily installs the commit taps).
//
// Delivery is strictly non-blocking for the committer: the tap sends
// into each subscription's buffered channel and drops the event when
// the buffer is full, counting the drop on the subscription and the
// store. A slow subscriber therefore loses events (detectable via
// Dropped) but can never block or slow a commit. Events are delivered
// at the commit's serialization point, which is slightly before the
// written values are transactionally readable — a subscriber that
// reacts to an event with an immediate Get may briefly still read the
// previous value, so it should treat the event itself as the truth
// about the write it describes.

// Event is one committed operation, as observed by a Subscription.
type Event struct {
	Shard int      // the key's shard
	Seq   uint64   // the commit's LSN: the store-wide log sequence number, shared by every op of one transaction
	Kind  wal.Kind // set, cset, del (cadd is never emitted by the store)
	Key   string
	Val   []byte // KindSet: the stored box — treat as read-only; else nil
	N     int64  // counter kinds: the absolute value
}

// Subscription is one registered changefeed consumer. Close (or the
// Subscribe context's cancellation) unregisters it and closes Events.
type Subscription struct {
	store  *Store
	prefix string
	ch     chan Event
	done   chan struct{}

	// mu serializes delivery against Close, so the tap never sends on a
	// closed channel. Held only for a non-blocking send — never I/O.
	mu     sync.Mutex
	closed bool

	dropped atomic.Uint64
}

// Subscribe registers a changefeed over keys with the given prefix
// ("" = all keys) with the default buffer of 256 events. The feed
// delivers every committed write on every shard, in LSN order; see
// SubscribeBuffer for the overflow contract.
func (s *Store) Subscribe(ctx context.Context, prefix string) *Subscription {
	return s.SubscribeBuffer(ctx, prefix, 256)
}

// SubscribeBuffer is Subscribe with an explicit per-subscription buffer
// (minimum 1). When the consumer falls more than the buffer behind,
// events are dropped — counted, never blocking a commit — so a
// subscriber that observes Dropped() > 0 must treat its view as gappy
// and re-read the keys it cares about.
func (s *Store) SubscribeBuffer(ctx context.Context, prefix string, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{
		store:  s,
		prefix: prefix,
		ch:     make(chan Event, buffer),
		done:   make(chan struct{}),
	}
	// The taps may not be installed yet (store without durability):
	// the first subscriber turns the commit streams on.
	s.tapOnce.Do(s.installTaps)
	s.subMu.Lock()
	var next []*Subscription
	if old := s.subs.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, sub)
	s.subs.Store(&next)
	s.subMu.Unlock()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sub.Close()
			case <-sub.done:
			}
		}()
	}
	return sub
}

// Events is the subscription's delivery channel. It closes when the
// subscription is closed (Close or context cancellation).
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Dropped returns how many events this subscription has lost to a full
// buffer. A non-zero value means the event stream has gaps.
func (sub *Subscription) Dropped() uint64 { return sub.dropped.Load() }

// Close unregisters the subscription and then closes its Events channel,
// so whoever sees the channel closed also sees the subscription gone from
// WALStats().Subscribers. Safe to call more than once and concurrently
// with delivery.
func (sub *Subscription) Close() {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.closed = true // deliver sends nothing from here on
	sub.mu.Unlock()

	s := sub.store
	s.subMu.Lock()
	if old := s.subs.Load(); old != nil {
		next := make([]*Subscription, 0, len(*old))
		for _, o := range *old {
			if o != sub {
				next = append(next, o)
			}
		}
		if len(next) == 0 {
			s.subs.Store(nil)
		} else {
			s.subs.Store(&next)
		}
	}
	s.subMu.Unlock()

	close(sub.ch)
	close(sub.done)
}

// deliver offers one event to the subscription: non-blocking, dropping
// (and counting) on a full buffer. Runs under the feed lock, so each
// subscriber sees events in LSN order.
func (sub *Subscription) deliver(ev Event) {
	if !strings.HasPrefix(ev.Key, sub.prefix) {
		return
	}
	sub.mu.Lock()
	if !sub.closed {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			sub.store.feedDropped.Add(1)
		}
	}
	sub.mu.Unlock()
}

// notifySubscribers fans one committed transaction's ops out to the
// registered subscriptions. Called by the commit tap under the feed
// lock.
func notifySubscribers(s *Store, subs []*Subscription, p *pendingOps) {
	for i := range p.ops {
		op := &p.ops[i]
		ev := Event{Shard: s.ShardOf(op.Key), Seq: p.seq, Kind: op.Kind, Key: op.Key, Val: op.Val, N: op.N}
		for _, sub := range subs {
			sub.deliver(ev)
		}
	}
}
