package kv

import "modtx/internal/wal"

// Replication source: the primary side's handles, consumed by the
// cluster streamer. A replica's stream is exactly the store's WAL —
// catch-up reads the segment files (wal.ScanSegments on ReplDir), the
// live tail attaches a wal.Follower to the log (ReplFollow).

// ReplPosition returns the store's newest LSN: the handshake-time
// position a replica must reach before it reports Ready.
func (s *Store) ReplPosition() (uint64, error) {
	if s.dur == nil || !s.dur.attached {
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

// ReplDir returns the directory holding the log's segment files, for
// wal.ScanSegments / wal.LatestSnapshot catch-up reads.
func (s *Store) ReplDir() (string, error) {
	if s.dur == nil {
		return "", ErrNotDurable
	}
	return s.dur.dir, nil
}

// ReplFollow attaches a live-tail follower to the log. See
// wal.Log.Follow for the low-water/overflow contract and the error a
// closed or failed log returns; the caller must Close the follower.
func (s *Store) ReplFollow(limitBytes int) (*wal.Follower, uint64, error) {
	if s.dur == nil || !s.dur.attached {
		return nil, 0, ErrNotDurable
	}
	return s.feed.log.Follow(limitBytes)
}
