package kv

import "modtx/internal/wal"

// Replication source: the primary side's handles, consumed by the
// cluster streamer. A replica's stream is exactly the store's WAL —
// catch-up reads the log's files (wal.Log.Scan, wal.Log.Snapshot)
// through its filesystem seam, and the live tail attaches a
// wal.Follower to it (wal.Log.Follow).

// ReplPosition returns the store's newest LSN: the handshake-time
// position a replica must reach before it reports Ready.
func (s *Store) ReplPosition() (uint64, error) {
	if s.dur == nil {
		return 0, ErrNotDurable
	}
	return s.feed.position(), nil
}

// ReplPositions is ReplPosition in the per-shard shape the benchmark
// still reads: one position, and 0 for the marker log there is no more.
// Shim for the benchmark; goes with ROADMAP item 8.
func (s *Store) ReplPositions() ([]uint64, uint64, error) {
	lsn, err := s.ReplPosition()
	return []uint64{lsn}, 0, err
}

// ReplLog returns the store's log, which a replica's stream reads:
// Scan and Snapshot for catch-up, Follow for the live tail (see
// wal.Log.Follow for the low-water/overflow contract and the error a
// closed or failed log returns).
func (s *Store) ReplLog() (*wal.Log, error) {
	if s.dur == nil {
		return nil, ErrNotDurable
	}
	return s.feed.log, nil
}
