// Package wal is the durability subsystem of the store: one
// append-only write-ahead log with group commit, snapshots, and
// torn-tail-tolerant recovery. It is dependency-free (stdlib plus
// internal/obs for metrics) and knows nothing about the STM or the kv
// layer above it — callers feed it already-sequenced operation lists
// and it feeds them back at recovery.
//
// The moving parts:
//
//   - Records (record.go): fixed-layout binary encoding of one
//     committed transaction's operations — length-prefixed,
//     CRC32C-checksummed, explicit offsets, no reflection. A record
//     carries {commitSeq, ops[]} where ops cover bytes-lane SET,
//     counter ADD/SET and DELETE, on any number of shards.
//   - Log (log.go): the append-only log. Appends are buffered under the
//     caller's sequencing lock; a batcher goroutine coalesces
//     everything buffered since its last pass into one write(2) and —
//     depending on the durability level — one fsync, so concurrent
//     committers share both syscalls (group commit). Segments rotate
//     at a size threshold.
//   - Snapshots (snapshot.go): the state exact at one sequence, which
//     the Log's checkpoint folds from the previous snapshot and the
//     segment files — after each rotation, or when asked — and writes
//     atomically (temp file + rename), so recovery replays only the log
//     tail.
//   - Recovery (recover.go): Open, the one way in, recovers the
//     directory and opens the Log on it: newest loadable snapshot +
//     tail replay with strict sequence continuity; a torn or corrupt
//     tail is truncated at the last valid record, never fatal.
//     Recovered state is always a commit-order prefix of what was
//     logged.
//   - Reads (cursor.go): recovery, a checkpoint and a replica's
//     catch-up (Log.Scan, Log.Snapshot) read the files one way — a
//     record at a time, through the Log's FS (fs.go), the seam a fault
//     test stands in — so nothing reads the directory around the Log.
//
// The log's ordering contract is inherited from the caller: Append
// must be invoked in commit order (internal/kv drives it from the
// STM's commit tap, which fires at each transaction's serialization
// point), and sequence numbers must be dense — recovery enforces
// seq continuity and treats any gap as a torn tail.
package wal

import (
	"fmt"
	"sync/atomic"

	"modtx/internal/obs"
)

// Level is a durability level: what an acknowledged write survives.
type Level int

const (
	// None appends to the OS page cache and never fsyncs. Survives a
	// process crash (SIGKILL), not a machine crash.
	None Level = iota
	// Batch appends immediately and fsyncs on a short interval; an
	// acknowledged write may lose up to the flush interval on machine
	// crash. Survives a process crash completely.
	Batch
	// Fsync acknowledges a write only after a group-commit fsync
	// covering it. Survives machine crash up to the last fsync, which
	// every acknowledged write is within.
	Fsync
)

var levelNames = [...]string{"none", "batch", "fsync"}

// String returns the level's wire name ("none", "batch", "fsync").
func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel parses a wire name back into a Level.
func ParseLevel(s string) (Level, error) {
	for i, n := range levelNames {
		if s == n {
			return Level(i), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown durability level %q (want none, batch or fsync)", s)
}

// Metrics is the write-side observability surface of one or more Logs.
// All fields are
// allocation-free on the write side; the zero value is ready for use.
type Metrics struct {
	AppendNs obs.Histogram // latency of one batched write(2)
	FsyncNs  obs.Histogram // latency of one fsync

	Appends         atomic.Uint64 // records appended to the log
	Batches         atomic.Uint64 // physical writes (group-commit batches)
	Fsyncs          atomic.Uint64 // fsyncs issued
	Bytes           atomic.Uint64 // bytes written
	Rotations       atomic.Uint64 // segment rotations
	Truncations     atomic.Uint64 // torn tails truncated during recovery
	TruncatedBytes  atomic.Uint64 // bytes dropped by those truncations
	Failures        atomic.Uint64 // Logs failed by a sticky I/O error
	Checkpoints     atomic.Uint64 // snapshots written by checkpoints
	CheckpointFails atomic.Uint64 // checkpoints that failed
}

// MetricsSnapshot is a point-in-time copy of Metrics. The JSON names
// are a stable wire format (STATS WAL and /debug/vars render it).
type MetricsSnapshot struct {
	Appends         uint64       `json:"appends"`
	Batches         uint64       `json:"batches"`
	Fsyncs          uint64       `json:"fsyncs"`
	Bytes           uint64       `json:"bytes"`
	Rotations       uint64       `json:"rotations"`
	Truncations     uint64       `json:"truncations"`
	TruncatedBytes  uint64       `json:"truncated_bytes"`
	Failures        uint64       `json:"failures"`
	Checkpoints     uint64       `json:"checkpoints"`
	CheckpointFails uint64       `json:"checkpoint_fails"`
	AppendNs        obs.Snapshot `json:"append_ns"`
	FsyncNs         obs.Snapshot `json:"fsync_ns"`
}

// Snapshot copies the metrics.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Appends:         m.Appends.Load(),
		Batches:         m.Batches.Load(),
		Fsyncs:          m.Fsyncs.Load(),
		Bytes:           m.Bytes.Load(),
		Rotations:       m.Rotations.Load(),
		Truncations:     m.Truncations.Load(),
		TruncatedBytes:  m.TruncatedBytes.Load(),
		Failures:        m.Failures.Load(),
		Checkpoints:     m.Checkpoints.Load(),
		CheckpointFails: m.CheckpointFails.Load(),
		AppendNs:        m.AppendNs.Snapshot(),
		FsyncNs:         m.FsyncNs.Snapshot(),
	}
}
