package stm

import (
	"modtx/internal/obs"
)

// Metrics is an STM instance's observability surface: fixed-layout
// atomic histograms and a contention-attribution table, recorded into by
// the transaction loop behind cheap gates and snapshotted by operators
// (internal/kv aggregates them per shard; cmd/mtx-kv renders them on the
// admin plane). All write sides are allocation-free, preserving the
// zero-allocation hot-path contract with metrics enabled.
//
// Latency and attempt distributions are sampled — by default one
// transaction in 256 (see WithMetricsSampling) carries a timestamp — so
// the steady-state cost of instrumentation is a non-atomic counter bump
// per call plus the amortized clock reads. Park durations and conflict
// attributions are recorded unsampled: both live on slow paths where a
// few atomic adds vanish into microseconds.
type Metrics struct {
	// CommitNs is the distribution of wall-clock latency (ns) of
	// committed read-write transactions — the whole Atomically call from
	// first attempt to commit, retries and parks included. Multi-instance
	// commits account to the lead (first) instance.
	CommitNs obs.Histogram

	// ReadOnlyNs is the same distribution for the read-only loop,
	// Snap.Run: AtomicallyRead and friends, and every caller of Run
	// (kv's View, and its reads whose first snapshot gave up). A Snap
	// read outside Run records nothing here.
	ReadOnlyNs obs.Histogram

	// Attempts is the distribution of attempts consumed per sampled
	// committed transaction or standing Run (1 = first try stood).
	Attempts obs.Histogram

	// ParkNs is the distribution of park durations (ns) in the
	// commit-notification subsystem — how long blocked and conflicted
	// transactions actually slept. Recorded for every park.
	ParkNs obs.Histogram

	// Contention attributes conflicts to the variable they lost to, by
	// variable id: a read or lock attempt that found the variable locked,
	// too new, or changed at validation records the loser here. Map ids
	// back to names at snapshot time (internal/kv resolves them to keys;
	// Var.ID exposes the id).
	Contention obs.HotTable
}

// Reset zeroes every distribution and the contention table. Cumulative
// Stats counters are not touched; Reset is for re-baselining latency
// profiles between experiments.
func (m *Metrics) Reset() {
	m.CommitNs.Reset()
	m.ReadOnlyNs.Reset()
	m.Attempts.Reset()
	m.ParkNs.Reset()
	m.Contention.Reset()
}

// Metrics returns the instance's metrics. The pointer is stable for the
// instance's lifetime.
func (s *STM) Metrics() *Metrics { return s.metrics }

// ID returns the variable's stable id within its instance — the key of
// the contention-attribution table (see Metrics.Contention). Promoted to
// Var and TVar[T] through embedding.
func (vb *varBase) ID() uint64 { return vb.id }

// noteContention attributes one conflict observation to vb in its
// owner's contention table. Called on the conflict paths only (read
// sampling, lock acquisition, validation), never on conflict-free
// commits.
func noteContention(vb *varBase) {
	vb.owner.metrics.Contention.Record(vb.id)
}

// nextSample advances the pooled handle's sampling tick and reports
// whether this transaction should carry a latency timestamp. The tick
// survives pool round-trips (reset does not clear it), so each pooled Tx
// contributes an even 1-in-N stream without any shared atomic on the
// transaction fast path.
func (tx *Tx) nextSample() bool {
	tx.mTick++
	return tx.mTick&tx.s.sampleMask == 0
}
