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
)

// engine is the seam behind the transactional protocol: one read and one
// write hook per location (a loc, Var and TVar[T] alike) plus the
// lock/validate/commit/rollback phases. A Snap reads outside any
// transaction and needs no hook: on every engine a location's value
// changes only while its word is locked, and every lock episode that
// changed the value ends on a different word. Tx owns the shared
// attempt state (read set, write set, undo log, lock tables); an engine
// is a stateless strategy over that state, so implementations are value
// types and one instance serves every transaction of an STM.
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

	// read and write move a location's value as the pair (n, p) of
	// loc.load and loc.store. Both may raise a conflict (never
	// returning).
	read(tx *Tx, l loc) (n int64, p any)
	write(tx *Tx, l loc, n int64, p any)

	// prepare is commit phase one for a single-instance transaction:
	// after it returns true the transaction is guaranteed committable and
	// the caller must follow with commit (or releasePrepared to back
	// out). On false the caller aborts the attempt.
	prepare(tx *Tx) bool
	// lockWrites (phase 1a) takes the commit-time locks on the write
	// set; locks taken are recorded in tx.lockedMeta for restoration.
	lockWrites(tx *Tx) bool
	// validateReads (phase 1b) checks the read set against the begin-time
	// snapshot; only lock words are examined.
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
}

// engineInfo is one registry row.
type engineInfo struct {
	id      Engine
	name    string
	aliases []string
	impl    engine
}

// engineTable is the registry backing the Engine enum. Order is the
// order Engines() reports and benchmarks iterate.
var engineTable = []engineInfo{
	{Lazy, "lazy", nil, lazyEngine{}},
	{Eager, "eager", nil, eagerEngine{}},
	{GlobalLock, "global-lock", []string{"global"}, glockEngine{}},
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

// sample reads l's value consistently against tx.rv: the meta word is
// sampled around the value load to detect torn reads, locked or
// too-new locations conflict, and the observation joins the read set for
// commit-time validation.
func sample(tx *Tx, l loc) (int64, any) {
	vb := l.base()
	for {
		m1 := vb.meta.Load()
		if isLocked(m1) {
			// A commit is in flight on l: park on it — its writeback (or
			// the fallback timer, if it aborts) re-runs us.
			tx.conflictOn(vb, m1)
		}
		n, p := l.load()
		if m2 := vb.meta.Load(); m1 != m2 {
			continue // torn sample; retry
		}
		if version(m1) > tx.rv {
			// Written by a transaction after our snapshot: the world
			// already changed, so retry immediately — never park.
			noteContention(vb)
			tx.conflictRetryNow()
		}
		tx.reads = append(tx.reads, readEntry{vb: vb, meta: m1})
		return n, p
	}
}

// lockWriteSetSorted acquires the commit-time locks on the write set in
// id order (deterministic across committers, so concurrent commits
// cannot deadlock). Locks taken are recorded in tx.lockedMeta — a
// capacity-retained slice sorted by id, so the hot path allocates
// nothing — and releasePrepared restores them on any later failure.
func lockWriteSetSorted(tx *Tx) bool {
	if len(tx.writes) == 0 {
		return true
	}
	lm := tx.lockedMeta[:0]
	for i := range tx.writes {
		lm = append(lm, lockedEntry{vb: tx.writes[i].l.base()})
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
