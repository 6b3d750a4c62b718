package kv

import (
	"errors"
	"fmt"
)

// Degraded mode: what a durable store does after its WAL latches a
// sticky I/O failure (internal/wal errors are sticky by design — a log
// that cannot write must not silently acknowledge). The failure is a
// transition to read-only: the store refuses new writes with
// ErrDegraded while reads keep serving, so the dataset stops diverging
// from disk and a restart after the disk recovers loses nothing
// acknowledged. At the Fsync level the write whose batch failed gets
// ErrDegraded too. A write that passed the gate just before the flip
// commits in memory but the failed log refuses its record;
// WALStats.ShedWrites counts it, and only below the Fsync level is it
// acknowledged.
//
// The transition fires the moment the WAL fails (the log's OnFail
// hook), not on the next write, and is one-way: recovering the disk
// means reopening the store, which re-runs recovery against the
// repaired directory.

// ErrDegraded is returned for writes rejected because the store is in
// read-only degraded mode after a WAL failure. The underlying WAL
// error is attached: errors.Is(err, ErrDegraded) routes, %v explains.
var ErrDegraded = errors.New("kv: store degraded after WAL failure, writes rejected")

// noteWALFault is the WAL's OnFail hook: it records the first failure
// and flips the store degraded. Runs on whichever goroutine hit the
// fault (usually a log batcher) and must stay non-blocking.
func (s *Store) noteWALFault(err error) {
	d := s.dur
	if d == nil {
		return
	}
	d.degErr.CompareAndSwap(nil, &err)
	d.degraded.Store(true)
}

// Degraded reports whether the store has latched a WAL failure, and
// the failure itself.
func (s *Store) Degraded() (bool, error) {
	d := s.dur
	if d == nil || !d.degraded.Load() {
		return false, nil
	}
	if ep := d.degErr.Load(); ep != nil {
		return true, *ep
	}
	return true, nil
}

// degradedGate is the write-path admission check: every mutating
// operation consults it before starting its transaction. One atomic
// load on the healthy path.
func (s *Store) degradedGate() error {
	d := s.dur
	if d == nil || !d.degraded.Load() {
		return nil
	}
	if ep := d.degErr.Load(); ep != nil {
		return degradeWriteErr(*ep)
	}
	return ErrDegraded
}

// degradeWriteErr dresses a WAL failure as ErrDegraded, keeping the
// failure attached.
func degradeWriteErr(err error) error {
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}
