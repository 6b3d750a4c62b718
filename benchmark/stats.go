package main

import (
	"modtx/internal/kv"
	"modtx/internal/obs"
)

// layerStats is one reading of the public counters and histograms the
// kv, stm and wal layers keep — from Store methods in process, or from
// the STATS wire commands for a spawned server. Per-layer metrics are
// differences between the reading after a window and the one before it.
type layerStats struct {
	kv  kv.Stats
	stm kv.StmLatencies
	ops map[string]obs.Snapshot // kv op latency by kv.Op name
	wal kv.WALStats
}

func readStoreStats(s *kv.Store) layerStats {
	ls := layerStats{kv: s.Stats(), stm: s.StmLatencies(), wal: s.WALStats(), ops: map[string]obs.Snapshot{}}
	for _, op := range kv.Ops() {
		ls.ops[op.String()] = s.OpLatency(op)
	}
	return ls
}

// histDelta is the distribution of the observations made between two
// snapshots of one histogram.
func histDelta(after, before obs.Snapshot) obs.Snapshot {
	d := after
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setLayerCounters fills the stm.*, wal.* and kv.* metrics that are read
// off the layers' own stats over one window.
func (r *result) setLayerCounters(before, after layerStats) {
	b, a := before.kv, after.kv
	commits := float64(a.Commits - b.Commits)
	conflicts := float64(a.Conflicts - b.Conflicts)
	r.set("kv.fast_gets", float64(a.FastGets-b.FastGets))
	r.set("kv.read_only_commits", float64(a.ReadOnlyCommits-b.ReadOnlyCommits))
	r.set("kv.multi_commits", float64(a.MultiCommits-b.MultiCommits))
	r.set("stm.commits", commits)
	r.set("stm.conflicts", conflicts)
	// Every attempt ends in a commit, a conflict or a user abort;
	// conflicts are the wasted ones.
	r.set("stm.conflict_ratio", ratio(conflicts, commits+conflicts+float64(a.UserAborts-b.UserAborts)))
	r.set("stm.user_aborts", float64(a.UserAborts-b.UserAborts))
	r.set("stm.waits", float64(a.Waits-b.Waits))
	r.set("stm.wakeups", float64(a.Wakeups-b.Wakeups))
	r.set("stm.spurious_wakeups", float64(a.SpuriousWakeups-b.SpuriousWakeups))

	attempts := histDelta(after.stm.Attempts, before.stm.Attempts)
	commitNs := histDelta(after.stm.CommitNs, before.stm.CommitNs)
	roNs := histDelta(after.stm.ReadOnlyNs, before.stm.ReadOnlyNs)
	parkNs := histDelta(after.stm.ParkNs, before.stm.ParkNs)
	r.set("stm.attempts_p99", float64(attempts.Quantile(0.99)))
	r.set("stm.commit_p50_ns", float64(commitNs.Quantile(0.5)))
	r.set("stm.readonly_p50_ns", float64(roNs.Quantile(0.5)))
	r.set("stm.park_p50_us", float64(parkNs.Quantile(0.5))/1e3)

	wb, wa := before.wal, after.wal
	appends := float64(wa.Appends - wb.Appends)
	fsyncs := float64(wa.Fsyncs - wb.Fsyncs)
	bytes := float64(wa.Bytes - wb.Bytes)
	appendNs := histDelta(wa.AppendNs, wb.AppendNs)
	fsyncNs := histDelta(wa.FsyncNs, wb.FsyncNs)
	r.set("wal.appends", appends)
	r.set("wal.batches", float64(wa.Batches-wb.Batches))
	r.set("wal.fsyncs", fsyncs)
	r.set("wal.bytes", bytes)
	r.set("wal.records_per_fsync", ratio(appends, fsyncs))
	r.set("wal.bytes_per_record", ratio(bytes, appends))
	r.set("wal.append_p50_ns", float64(appendNs.Quantile(0.5)))
	r.set("wal.fsync_p50_us", float64(fsyncNs.Quantile(0.5))/1e3)
	r.set("wal.fsync_p99_us", float64(fsyncNs.Quantile(0.99))/1e3)
	r.set("wal.rotations", float64(wa.Rotations-wb.Rotations))
	r.set("wal.checkpoints", float64(wa.Checkpoints-wb.Checkpoints))
	r.set("wal.txn_markers", float64(wa.TxnMarkers-wb.TxnMarkers))
	r.set("wal.shed_writes", float64(wa.ShedWrites-wb.ShedWrites))
}

// kvOpP50 is the median, over one window, of the kv layer's own sampled
// latency across the named ops (log-bucketed: the layer's histogram is
// the only view of it from outside a server process).
func kvOpP50(before, after layerStats, ops ...string) float64 {
	var merged obs.Snapshot
	for _, name := range ops {
		merged.Merge(histDelta(after.ops[name], before.ops[name]))
	}
	return float64(merged.Quantile(0.5))
}
