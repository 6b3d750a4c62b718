package kv

import (
	"sort"

	"modtx/internal/obs"
	"modtx/internal/stm"
)

// Observability surface of the store: sampled per-operation latency
// histograms at the API boundary, per-shard statistics, merged STM-level
// latency distributions, and hot-key contention attribution (the STM
// layer records conflicts by variable id; this layer maps the ids back
// to key names at snapshot time, so the hot write side never touches a
// string). Everything here is read-side; the write-side cost on the
// serving paths is a pooled non-atomic tick and, one call in N, a pair
// of clock reads — see WithMetricsSampling.

// Op identifies one instrumented store operation.
type Op int

// Instrumented operations, in histogram order.
const (
	OpGet Op = iota
	OpCounterGet
	OpSet
	OpCounterAdd
	OpUpdate
	OpView
	OpWaitGet
	numOps
)

var opNames = [numOps]string{"get", "counter_get", "set", "counter_add", "update", "view", "wait_get"}

// String returns the operation's wire name (stable: the admin plane
// emits it as a Prometheus label).
func (o Op) String() string {
	if o >= 0 && o < numOps {
		return opNames[o]
	}
	return "unknown"
}

// Ops returns every instrumented operation in histogram order.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// nextSample advances the pooled op's sampling tick; like stm.Tx's, the
// tick survives pool round-trips (release does not clear it) so each
// pooled op contributes an even 1-in-N stream with no shared atomic.
func (op *singleOp) nextSample() bool {
	op.tick++
	return op.tick&op.s.sampleMask == 0
}

func (op *multiOp) nextSample() bool {
	op.tick++
	return op.tick&op.s.sampleMask == 0
}

// OpLatency returns the sampled latency distribution of one operation
// (zero-valued for an unknown op).
func (s *Store) OpLatency(op Op) obs.Snapshot {
	if op < 0 || op >= numOps {
		return obs.Snapshot{}
	}
	return s.opHists[op].Snapshot()
}

// StmLatencies is the union of every shard's STM-level distributions:
// commit latency, read-only latency (stm.Snap.Run: every View, and each
// Get, CounterGet, MGet or checkpoint batch that it ran), attempts per
// committed call, and park duration (see stm.Metrics).
type StmLatencies struct {
	CommitNs   obs.Snapshot `json:"commit_ns"`
	ReadOnlyNs obs.Snapshot `json:"read_only_ns"`
	Attempts   obs.Snapshot `json:"attempts"`
	ParkNs     obs.Snapshot `json:"park_ns"`
}

// StmLatencies merges the per-shard STM distributions into one
// store-wide view.
func (s *Store) StmLatencies() StmLatencies {
	var out StmLatencies
	for _, sh := range s.shards {
		m := sh.stm.Metrics()
		out.CommitNs.Merge(m.CommitNs.Snapshot())
		out.ReadOnlyNs.Merge(m.ReadOnlyNs.Snapshot())
		out.Attempts.Merge(m.Attempts.Snapshot())
		out.ParkNs.Merge(m.ParkNs.Snapshot())
	}
	return out
}

// ShardStat is one shard's point-in-time statistics. The JSON names are
// a stable wire format (STATS SHARDS and /metrics render from it).
type ShardStat struct {
	Shard    int               `json:"shard"`
	Keys     int               `json:"keys"`
	FastGets uint64            `json:"fast_gets"`
	Stm      stm.StatsSnapshot `json:"stm"`
}

// ShardStats returns per-shard statistics, indexed by shard.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Shard:    i,
			Keys:     int(sh.keys.Load()),
			FastGets: s.fastGets[i].n.Load(),
			Stm:      sh.stm.Snapshot(),
		}
	}
	return out
}

// HotKey is one contended key and its approximate conflict count — how
// many conflicts were attributed to (lost against) its variables.
type HotKey struct {
	Key   string `json:"key"`
	Shard int    `json:"shard"`
	Count uint64 `json:"count"`
}

// Sentinel names surfaced by HotKeys for contention attributed to shard
// infrastructure rather than a user key.
const (
	hotKeyspace    = "(keyspace)"    // the shard's keyspace version (WaitGet routing)
	hotPublication = "(publication)" // the shard's publication sentinel
	hotSwept       = "(swept)"       // a deleted entry's variables, no longer in the table
)

// HotKeys returns the approximately most conflict-contended keys across
// all shards, hottest first, at most n entries (n <= 0 means all
// resident). Attribution is by the STM contention tables — each records
// the variable a conflict lost to, by id — and this read side maps ids
// back through the shards' key tables, one variable per key. Conflicts
// on shard infrastructure surface as "(keyspace)" and "(publication)";
// an id whose entry was deleted since surfaces as "(swept)". Counts are
// approximate (see obs.HotTable) — the head of a skewed profile is
// accurate, which is the use case. Nil when no conflict was recorded.
func (s *Store) HotKeys(n int) []HotKey {
	var out []HotKey
	for i, sh := range s.shards {
		snap := sh.stm.Metrics().Contention.Snapshot()
		if len(snap) == 0 {
			continue
		}
		// Map the snapshot's few variable ids back to key names: one table
		// scan per shard that keeps only those, so a scrape allocates the
		// same beside a thousand keys and beside a million.
		names := make(map[uint64]string, len(snap))
		unnamed := 0
		for _, he := range snap {
			switch he.ID {
			case sh.kvers.ID():
				names[he.ID] = hotKeyspace
			case sh.pub.ID():
				names[he.ID] = hotPublication
			default:
				names[he.ID] = hotSwept // unless the scan finds its entry
				unnamed++
			}
		}
		for e := range sh.each {
			if unnamed == 0 {
				break
			}
			if id := e.varID(); names[id] == hotSwept {
				names[id] = e.key
				unnamed--
			}
		}
		// Several contention-table slots may resolve to one name; sum them.
		byName := make(map[string]uint64, len(snap))
		for _, he := range snap {
			byName[names[he.ID]] += he.Count
		}
		for name, count := range byName {
			out = append(out, HotKey{Key: name, Shard: i, Count: count})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].Key != out[b].Key { // deterministic order among ties
			return out[a].Key < out[b].Key
		}
		return out[a].Shard < out[b].Shard
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ResetMetrics zeroes the per-op histograms and every shard's STM
// distributions and contention table. Cumulative counters (Stats,
// ShardStats) are not touched.
func (s *Store) ResetMetrics() {
	for i := range s.opHists {
		s.opHists[i].Reset()
	}
	for _, sh := range s.shards {
		sh.stm.Metrics().Reset()
	}
}
