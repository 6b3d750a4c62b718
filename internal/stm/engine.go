package stm

import (
	"fmt"
	"slices"
	"strings"
)

// Engine selects the versioning strategy. The exported enum is the stable
// selection API; each value is backed by a registered implementation of
// the unexported engine interface, so adding a strategy means adding one
// file and one registry row, not editing every hot path.
type Engine int

// Registered engines.
const (
	// Lazy buffers writes and applies them at commit under per-variable
	// versioned locks validated against a global version clock.
	Lazy Engine = iota
	// Eager locks at encounter time and writes in place with an undo log.
	Eager
	// GlobalLock serializes every transaction under one instance mutex.
	GlobalLock
	// TL2 is the snapshot engine: global-version-clock snapshots with
	// invisible reads, TL2-style timestamp extension, and read-only
	// transactions (AtomicallyRead) that keep no read set and commit in
	// O(1) without locks or validation.
	TL2
	// Adaptive delegates per instance to tl2 or eager, flipped by the
	// contention controller when the conflict rate crosses its
	// hysteresis thresholds (see adapt.go and engine_adaptive.go).
	Adaptive
)

// engine is the seam behind the transactional protocol: per-location
// read/write hooks over both value lanes (the inline int64 lane of Var
// and the boxed lane of TVar[T]) plus the lock/validate/commit/rollback
// phases. Tx owns the shared attempt state (read set, write sets, undo
// logs, lock tables); an engine is a stateless strategy over that state,
// so implementations are value types and one instance serves every
// transaction of an STM.
//
// The commit protocol is split so that AtomicallyMulti can two-phase it
// across instances: lockWrites (phase 1a) then validateReads (phase 1b)
// with a cross-instance barrier between them, then commit (phase 2).
// Single-instance commits go through prepare, which may fast-path.
type engine interface {
	// begin initializes the attempt after its quiescence slot is held. It
	// must leave tx.rv at a snapshot of the version clock; engines with
	// instance-level mutual exclusion acquire it here.
	begin(tx *Tx)
	// finish releases engine-level resources of a resolved attempt.
	finish(tx *Tx)

	// read and write are the int64 lane; readBoxed and writeBoxed the
	// pointer lane. All four may raise a conflict (never returning).
	read(tx *Tx, v *Var) int64
	write(tx *Tx, v *Var, x int64)
	readBoxed(tx *Tx, b boxed) any
	writeBoxed(tx *Tx, b boxed, box any)

	// prepare is commit phase one for a single-instance transaction:
	// after it returns true the transaction is guaranteed committable and
	// the caller must follow with commit (or releasePrepared to back
	// out). On false the caller aborts the attempt.
	prepare(tx *Tx) bool
	// lockWrites (phase 1a) takes the commit-time locks on the write
	// set; locks taken are recorded in tx.lockedMeta for restoration.
	lockWrites(tx *Tx) bool
	// validateReads (phase 1b) checks the read set against the begin-time
	// snapshot; it is lane-agnostic (only lock words are examined).
	validateReads(tx *Tx) bool
	// commit (phase 2) publishes the write set and releases commit-time
	// locks with a fresh version. Only legal after a successful prepare
	// (or lockWrites+validateReads).
	commit(tx *Tx)
	// rollback undoes in-place effects and drops buffers.
	rollback(tx *Tx)

	// wakeSet calls f for every variable the just-committed transaction
	// published, in the engine's own write-set representation — the hook
	// the commit-notification subsystem (notify.go) uses to wake parked
	// transactions. Called by commitPrepared after commit, so the new
	// version words are visible before any waiter is signaled, and only
	// when the instance has registered waiters.
	wakeSet(tx *Tx, f func(*varBase))

	// invisibleReadOnly reports whether a single-instance read-only
	// transaction (AtomicallyRead) can run with no read set at all:
	// every read validates against tx.rv at read time, so commit needs
	// no validation. Multi-instance read-only transactions always keep
	// read sets regardless (their serialization point is later than any
	// single rv). It takes the attempt so the adaptive engine can answer
	// for the delegate the attempt actually began under.
	invisibleReadOnly(tx *Tx) bool
}

// engineInfo is one registry row.
type engineInfo struct {
	id      Engine
	name    string
	aliases []string
	impl    engine
	doc     string
}

// engineTable is the registry backing the Engine enum. Order is the
// order Engines() reports and benchmarks iterate.
var engineTable = []engineInfo{
	{Lazy, "lazy", nil, lazyEngine{},
		"lazy versioning: buffered writes, commit-time locks, global version clock"},
	{Eager, "eager", nil, eagerEngine{},
		"encounter-time locking with an undo log; writes in place"},
	{GlobalLock, "global-lock", []string{"global"}, glockEngine{},
		"one mutex per instance; the strongest and slowest baseline"},
	{TL2, "tl2", []string{"snapshot"}, tl2Engine{},
		"global-version-clock snapshots: invisible reads, timestamp extension, lock-free read-only transactions"},
	{Adaptive, "adaptive", nil, adaptiveEngine{},
		"contention-adaptive: starts on tl2, flips to eager encounter locking while the conflict rate stays above the hysteresis threshold"},
}

func lookupEngine(e Engine) (engineInfo, bool) {
	for _, info := range engineTable {
		if info.id == e {
			return info, true
		}
	}
	return engineInfo{}, false
}

// Engines returns every registered engine in registry order. Test
// suites and benchmarks iterate this so a new engine cannot merge
// without passing the anomaly checks.
func Engines() []Engine {
	out := make([]Engine, len(engineTable))
	for i, info := range engineTable {
		out[i] = info.id
	}
	return out
}

// EngineNames returns the canonical engine names in registry order.
func EngineNames() []string {
	out := make([]string, len(engineTable))
	for i, info := range engineTable {
		out[i] = info.name
	}
	return out
}

// EngineDoc returns a one-line description of the engine, or "" if it is
// not registered.
func EngineDoc(e Engine) string {
	if info, ok := lookupEngine(e); ok {
		return info.doc
	}
	return ""
}

// ParseEngine resolves an engine name (or registered alias, case
// insensitively) to its Engine value. The error enumerates the valid
// names.
func ParseEngine(name string) (Engine, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, info := range engineTable {
		if n == info.name {
			return info.id, nil
		}
		for _, a := range info.aliases {
			if n == a {
				return info.id, nil
			}
		}
	}
	return 0, fmt.Errorf("stm: unknown engine %q (want %s)", name, strings.Join(EngineNames(), ", "))
}

// String returns the registered name, consistent with ParseEngine; an
// unregistered value formats as "engine(N)".
func (e Engine) String() string {
	if info, ok := lookupEngine(e); ok {
		return info.name
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// --- shared building blocks used by the engine implementations ---

// sampleVar reads v's value consistently against tx.rv: the meta word is
// sampled around the value load to detect torn reads, locked or
// too-new variables conflict, and (when record is set) the observation
// joins the read set for commit-time validation. With extend set, a
// too-new variable first attempts a TL2 timestamp extension instead of
// conflicting outright.
func sampleVar(tx *Tx, v *Var, record, extend bool) int64 {
	for {
		m1 := v.meta.Load()
		if isLocked(m1) {
			// A commit is in flight on v: park on it — its writeback (or
			// the fallback timer, if it aborts) re-runs us.
			tx.conflictOn(&v.varBase, m1)
		}
		val := v.val.Load()
		if m2 := v.meta.Load(); m1 != m2 {
			continue // torn sample; retry
		}
		if version(m1) > tx.rv {
			// Written by a transaction after our snapshot: the world
			// already changed, so retry immediately — never park.
			if !extend || !tx.extendSnapshot() {
				noteContention(&v.varBase)
				tx.conflictRetryNow()
			}
			continue
		}
		if record {
			tx.reads = append(tx.reads, readEntry{vb: &v.varBase, meta: m1})
		}
		tx.nreads++
		return val
	}
}

// sampleBox is the pointer-lane twin of sampleVar.
func sampleBox(tx *Tx, b boxed, record, extend bool) any {
	vb := b.base()
	for {
		m1 := vb.meta.Load()
		if isLocked(m1) {
			tx.conflictOn(vb, m1)
		}
		box := b.loadBox()
		if m2 := vb.meta.Load(); m1 != m2 {
			continue // torn sample; retry
		}
		if version(m1) > tx.rv {
			if !extend || !tx.extendSnapshot() {
				noteContention(vb)
				tx.conflictRetryNow()
			}
			continue
		}
		if record {
			tx.reads = append(tx.reads, readEntry{vb: vb, meta: m1})
		}
		tx.nreads++
		return box
	}
}

// extendSnapshot is the TL2 timestamp extension: move tx.rv forward to
// the current clock, provided every previous read is still valid at its
// original version (so the whole snapshot remains consistent at the new
// rv). Invisible reads (no read set) can only extend while no read has
// happened yet; after that there is nothing to revalidate against.
func (tx *Tx) extendSnapshot() bool {
	if tx.nreads != len(tx.reads) {
		// Some reads were invisible: extension would silently invalidate
		// them, except when none have happened at all.
		if tx.nreads == 0 {
			tx.rv = tx.s.clockBegin()
			return true
		}
		return false
	}
	newRV := tx.s.clockBegin()
	for _, re := range tx.reads {
		cur := re.vb.meta.Load()
		if isLocked(cur) || version(cur) > tx.rv {
			return false
		}
	}
	tx.rv = newRV
	return true
}

// lockWriteSetSorted acquires the commit-time locks on the combined
// write set of both lanes in id order (deterministic across committers,
// so concurrent commits cannot deadlock). Locks taken are recorded in
// tx.lockedMeta — a capacity-retained slice sorted by id, so the hot
// path allocates nothing — and releasePrepared restores them on any
// later failure. Shared by the lazy-family engines.
func lockWriteSetSorted(tx *Tx) bool {
	n := len(tx.writes) + len(tx.pwrites)
	if n == 0 {
		return true
	}
	lm := tx.lockedMeta[:0]
	for i := range tx.writes {
		lm = append(lm, lockedEntry{vb: &tx.writes[i].v.varBase})
	}
	for i := range tx.pwrites {
		lm = append(lm, lockedEntry{vb: tx.pwrites[i].b.base()})
	}
	slices.SortFunc(lm, func(a, b lockedEntry) int {
		switch {
		case a.vb.id < b.vb.id:
			return -1
		case a.vb.id > b.vb.id:
			return 1
		default:
			return 0
		}
	})
	for i := range lm {
		m, ok := lm[i].vb.tryLock(tx.rv)
		if ok {
			lm[i].meta = m
			continue
		}
		// Back out the locks taken so far before failing.
		for j := i - 1; j >= 0; j-- {
			lm[j].vb.meta.Store(lm[j].meta)
		}
		if !isLocked(m) {
			// Too new (or torn): the world already moved; retry at once.
			tx.conflictChanged = true
		} else {
			// A locked write target is worth parking on: its committer
			// will wake us. The contention table learns who we lost to.
			tx.conflictVB, tx.conflictMeta = lm[i].vb, m
		}
		noteContention(lm[i].vb)
		clear(lm)
		tx.lockedMeta = lm[:0]
		return false
	}
	tx.lockedMeta = lm
	return true
}
