// Blocking reads: WaitGet and Watch, built on the STM runtime's
// commit-notification subsystem (stm.Tx.Block). A blocked reader parks
// on what it read and is woken by the commit (or table Touch) that
// changes it, instead of polling.
//
// What it read is decided by shard.find. A key with a linked entry is
// its one word, whatever it holds: a waiter that read absent there is
// woken by the commit that writes a value — creation and re-creation
// are ordinary writes of that word. A key with no entry (or a retired
// one on its way out of the table) is the shard's keyspace version,
// which every link and unlink Touches; the woken waiter follows the
// table to the fresh entry and parks on its word until the creating
// transaction commits. Privatize's quiescence fence broadcasts to all
// waiters of the fenced shards (a privatized variable's plain writes
// would otherwise never wake them); after the fence, a still-blocked
// reader of a privatized key re-parks and relies on the safety-net
// recheck, which is the documented cost of blocking on state you have
// made private.
package kv

import (
	"bytes"
	"context"
	"time"

	"modtx/internal/stm"
)

// WaitGet returns key's value, blocking until the key exists: if the key
// is present it behaves like Get, otherwise the call parks until a Set,
// CounterAdd, MSet, Update or Publish brings the key to life, and then
// returns the value it observes. Counters are formatted as decimal,
// exactly as Get. The wait is event-driven — a parked WaitGet consumes
// no CPU and wakes on the next relevant commit.
// Cancellation or deadline on ctx ends the wait with a *stm.TxError
// wrapping stm.ErrCanceled.
func (s *Store) WaitGet(ctx context.Context, key string) ([]byte, error) {
	sh, h := s.route(key)
	// WaitGet is timed unsampled: a call that parks is milliseconds and a
	// call that does not is still a full transaction, so the clock pair is
	// noise — and the wait distribution's tail is the interesting part.
	t0 := time.Now()
	var out []byte
	err := sh.stm.AtomicallyCtx(ctx, func(tx *stm.Tx) error {
		var ok bool
		if out, ok = value(sh.find(tx, key, h)); !ok {
			tx.Block()
		}
		return nil
	})
	s.opHists[OpWaitGet].Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Watch blocks until key's state differs from what Watch itself observes
// at call time, then returns the new state: the value and ok=true while
// the key exists, ok=false when it was deleted. Equality is by value
// (bytes.Equal on the surfaced representation), so a Set that rewrites
// the same bytes does not wake the caller, and intermediate states
// between wakeups are not observed (Watch is level-triggered, not an
// event log). Use WatchFrom to supply the baseline yourself — e.g. to
// re-arm a watch loop without re-reading.
func (s *Store) Watch(ctx context.Context, key string) ([]byte, bool, error) {
	base, present, err := s.Get(key)
	if err != nil {
		return nil, false, err
	}
	return s.WatchFrom(ctx, key, base, present)
}

// WatchFrom blocks until key's state differs from the given baseline
// (val compared by bytes.Equal, present for existence) and returns the
// state it observes then. It returns immediately if the current state
// already differs. The wait is event-driven, like WaitGet.
func (s *Store) WatchFrom(ctx context.Context, key string, val []byte, present bool) ([]byte, bool, error) {
	sh, h := s.route(key)
	var out []byte
	var ok bool
	err := sh.stm.AtomicallyCtx(ctx, func(tx *stm.Tx) error {
		out, ok = value(sh.find(tx, key, h))
		if ok == present && (!ok || bytes.Equal(out, val)) {
			tx.Block() // unchanged from the baseline: wait on what find read
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, ok, nil
}
