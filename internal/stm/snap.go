package stm

import (
	"context"
	"slices"
	"time"
)

// Snap reads locations without a transaction, over their lock words.
// Read and SnapBox load a location's word (giving up if it is locked),
// the value, and the word again (loading both again if the word moved
// in between), and record the word. No quiescence slot, Tx or read set
// is used, so a snapshot takes no part in Quiesce: it writes nothing a
// fence would have to wait out.
//
// This holds on every engine, because each one changes a location's
// value only while the location's word is locked, and ends every lock
// episode that changed the value on a different word: lazy writes back
// under its commit-time locks, eager writes in place under its
// encounter-time locks, global-lock takes the same encounter-time locks
// under its instance mutex, and commit and rollback both release at a
// fresh version from the clock.
//
// A snapshot without bounds (every read passes math.MaxUint64) is a
// double collect: Valid loads every recorded word again. When none
// moved, each value was the committed one from its first load to the
// re-check, those windows all overlap, and the values held together at
// one instant inside the calls — a linearizable read of them all.
//
// Each read also takes a bound: a read gives up on a word whose version
// is above it, as a transaction's read gives up on a word newer than
// its begin. Bound returns an instance's bound, and every bound must be
// taken before the snapshot's first read: a commit locks every word
// it writes, on every instance, before it takes a version on any, so
// once every bound is loaded each of its words reads either from before
// it or from after it on every instance — or is refused. A bound taken
// at an instance's first read is too late: a snapshot could read a's
// old value on one instance, a commit could then move a and b, and a
// later bound on b's instance would let the new b through beside the
// old a.
//
// A bounded snapshot stands at its last bound, as a TL2 read-only
// transaction stands at its begin version, with no second collect.
// Call the last bound load t_last; every read comes after it. A read
// that accepts a word unlocked, at a version v no greater than its
// instance's bound, and unchanged across its value load, holds the
// value released at v, by a commit that took v before that bound was
// loaded. No later commit on that word had taken a version by the read:
// a committer locks its words before it takes a version, so the read
// would have found the word locked, or above the bound once released.
// So every value read was the committed one at t_last, and the
// snapshot linearizes there. This holds across instances too: a commit
// that landed between two bound loads moved its words before the read,
// which refuses them as too new. A caller acting on each value as it
// reads never sees two values no single instant held, and a word that
// moves after it was read does not undo the snapshot.
//
// The argument rests on versions, so a bounded snapshot still loads its
// words again in two cases, where a value came in with none:
//   - A plain store let through by a fence. A privatizer commits a
//     flag, runs Quiesce — which does not wait for a snapshot — and
//     then plainly stores into a location the snapshot has not read
//     yet. The store moves no word, so the snapshot could read the flag
//     from before the fence beside the value from after it; only the
//     flag's word moved. So Bound records the instance's fence epoch
//     (Stats.Quiesces, which Quiesce bumps before it waits) before it
//     loads the clock, and Valid loads every word again when an epoch
//     moved during the snapshot.
//   - A word at version 0, which no commit has released: its value was
//     stored plainly, by Init or Store, at a time no bound orders. A
//     location reached other than through a transactional read can be
//     one — internal/kv links each new key's entry into its table
//     plainly — so the snapshot that reads one loads its words again.
//
// A snapshot that takes bounds must read only the instances it bounded,
// each under its own bound; it counts its commit on those instances
// (see Valid). One that takes none passes math.MaxUint64.
//
// A read that reports false ends the snapshot: the word was locked (a
// commit is in flight) or newer than the bound, counted either way as a
// conflict on the location's instance. Run is the loop that retries
// such a snapshot, waiting out a held word. A Snap may span instances;
// Reset readies it for reuse, keeping its capacity. A Snap is not safe
// for concurrent use.
type Snap struct {
	reads  []readEntry
	owners []*STM    // the distinct instances: the bounded ones, or those read
	bounds []uint64  // the bounds Bound returned, aligned with owners
	epochs []uint64  // each bounded instance's Quiesces before its bound
	held   readEntry // the locked word that refused a read, for Run to park on
	moved  bool      // a read was refused as too new, or Valid found a word moved
	plain  bool      // a read found a word at version 0, which no commit released
	tick   uint64    // Run's latency-sampling tick; Reset keeps it
}

// Bound returns the bound of the snapshot's reads of s's locations,
// taken now: a read under it gives up on any word committed after this
// call. Call it once per instance, before the first read. It records
// s's fence epoch first, for Valid.
func (sn *Snap) Bound(s *STM) uint64 {
	sn.epochs = append(sn.epochs, s.stats.Quiesces.Load())
	b := s.clockBegin()
	sn.owners = append(sn.owners, s)
	sn.bounds = append(sn.bounds, b)
	return b
}

// Read returns v's value and true, or false if the snapshot must give
// up (see Snap). bound is the bound of v's instance.
func (sn *Snap) Read(v *Var, bound uint64) (int64, bool) {
	for {
		m, ok := sn.open(&v.varBase, bound)
		if !ok {
			return 0, false
		}
		n := v.val.Load()
		if sn.close(&v.varBase, m) {
			return n, true
		}
	}
}

// SnapBox is Read on a typed variable, returning its box (see
// TVar.LoadBox).
func SnapBox[T any](sn *Snap, v *TVar[T], bound uint64) (*T, bool) {
	for {
		m, ok := sn.open(&v.varBase, bound)
		if !ok {
			return nil, false
		}
		p := v.val.Load()
		if sn.close(&v.varBase, m) {
			return p, true
		}
	}
}

// open loads vb's word before the value, or reports that the snapshot
// must give up, noting what refused it.
func (sn *Snap) open(vb *varBase, bound uint64) (uint64, bool) {
	m := vb.meta.Load()
	switch {
	case isLocked(m):
		sn.held = readEntry{vb: vb, meta: m}
	case version(m) > bound:
		sn.moved = true
	default:
		if m == 0 {
			sn.plain = true
		}
		return m, true
	}
	snapConflict(vb)
	return 0, false
}

// close loads vb's word after the value. Unchanged from m, it records m
// for Valid and the value stands; moved, a commit or an in-place write
// landed in between and the caller loads both again.
func (sn *Snap) close(vb *varBase, m uint64) bool {
	if vb.meta.Load() != m {
		return false
	}
	sn.reads = append(sn.reads, readEntry{vb: vb, meta: m})
	return true
}

// Valid reports whether the values read hold together. An unbounded
// snapshot holds when every word read is unchanged. A bounded one holds
// at its last bound (see Snap), unless a fence began on one of its
// instances since Bound or it read a word at version 0; only then does
// it load its words again, holding when none moved. A valid snapshot
// counts as a read-only commit on each instance it bounded, or if it bounded none on each
// instance it read — a multi-instance commit when there are several; a
// moved word counts a conflict. A bounded snapshot's accounting is one
// pass over its bounds; an unbounded one finds the instances it read by
// a search per read among those found so far.
func (sn *Snap) Valid() bool {
	bounded := len(sn.bounds) > 0
	if !bounded || sn.plain || sn.fenced() {
		for _, r := range sn.reads {
			if r.vb.meta.Load() != r.meta {
				sn.moved = true
				snapConflict(r.vb)
				return false
			}
			if s := r.vb.owner; !bounded && !slices.Contains(sn.owners, s) {
				sn.owners = append(sn.owners, s)
			}
		}
	}
	multi := len(sn.owners) > 1
	for _, s := range sn.owners {
		s.stats.Commits.Add(1)
		s.stats.ReadOnlyCommits.Add(1)
		if multi {
			s.stats.MultiCommits.Add(1)
		}
	}
	return true
}

// fenced reports whether a fence began on a bounded instance since
// Bound recorded its epoch.
func (sn *Snap) fenced() bool {
	for i, s := range sn.owners {
		if s.stats.Quiesces.Load() != sn.epochs[i] {
			return true
		}
	}
	return false
}

// Reset empties the snapshot for reuse. It does not zero what it
// recorded, which stays reachable until overwritten: the hot paths keep
// their Snap in a sync.Pool, which lets it go at a later collection.
func (sn *Snap) Reset() {
	sn.reads = sn.reads[:0]
	sn.owners = sn.owners[:0]
	sn.bounds = sn.bounds[:0]
	sn.epochs = sn.epochs[:0]
	sn.held, sn.moved, sn.plain = readEntry{}, false, false
}

// GiveUp ends the running attempt of Run. A body calls it when one of
// its reads reports false, so that it never acts on a refused read; Run
// then retries or parks as the refusal directs. It never returns.
func (sn *Snap) GiveUp() { panic(conflictSignal{}) }

// Run runs fn over the snapshot until an attempt stands, and returns
// nil, or the error fn returned. Each attempt first bounds the snapshot
// on every instance of stms and passes fn the bounds, aligned with
// stms; fn reads each instance's locations under its bound, and calls
// GiveUp when a read reports false. An attempt stands when fn returns
// an error, which Run returns as is without validating, or when fn
// returns nil and Valid holds. Every attempt is bounded, so it stands
// at its last bound, however the words it read moved since, unless a
// fence began on one of stms during it or it read a word no commit
// released: then Valid loads its words again. After a read refused as
// too new, or a word Valid found moved, Run retries at once; after a
// held word it yields for a few attempts and then parks on that word
// until its holder releases it. Run honours ctx between attempts and
// the retry budget of stms[0], failing with a *TxError as Atomically does. No
// instance may appear in stms twice. Run takes no quiescence slot (see
// Quiesce), so fn may run a fence itself. It starts the snapshot
// afresh and leaves it empty.
func (sn *Snap) Run(ctx context.Context, stms []*STM, fn func(bounds []uint64) error) error {
	return sn.run(ctx, "snapshot", stms, fn)
}

// run is the read-only attempt loop behind Run and every AtomicallyRead
// entry point: Run's contract, with op naming the entry point in a
// *TxError. A ReadTx's Block parks the call on the snapshot's reads;
// its Retry is a refusal with no word to park on. The latency of a
// sampled call that stands is recorded in the lead instance's
// ReadOnlyNs and its attempts in Attempts. An empty stms runs fn(nil)
// once.
func (sn *Snap) run(ctx context.Context, op string, stms []*STM, fn func([]uint64) error) error {
	defer sn.Reset()
	sn.Reset()
	if len(stms) == 0 {
		// The cancellation contract still holds: a canceled context fails
		// before the body runs.
		if err := ctxErr(ctx); err != nil {
			return &TxError{Op: op, Err: ErrCanceled, Cause: err}
		}
		err, _ := sn.attempt(nil, fn)
		return err
	}
	lead := stms[0]
	m := lead.metrics
	var t0 time.Time
	sn.tick++
	sampled := m != nil && sn.tick&lead.sampleMask == 0
	if sampled {
		t0 = time.Now()
	}
	conflicts, parks := 0, 0
	for attempt := 0; attempt < lead.maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return lead.txError(op, attempt, conflicts, ErrCanceled, err)
		}
		err, st := sn.attempt(stms, fn)
		if st == txRan {
			if err != nil {
				for _, s := range stms {
					s.stats.UserAborts.Add(1)
				}
				return err
			}
			if sn.Valid() {
				if sampled {
					m.ReadOnlyNs.Observe(time.Since(t0).Nanoseconds())
					m.Attempts.Observe(int64(conflicts) + 1)
				}
				return nil
			}
		}
		// A too-new or moved word proved the world moved, so it retries
		// at once. Past the spin phase a held word parks on that word
		// alone, what the attempt waits for; a Block, or a Retry past the
		// spin phase, parks on what the attempt read.
		changed := sn.moved
		var w *waiter
		if st == txBlocked || !changed && attempt >= spinDefault {
			w = lead.newWaiter()
			if sn.held.vb != nil {
				w.entries = append(w.entries, sn.held)
			} else {
				w.entries = append(w.entries, sn.reads...)
			}
		}
		sn.Reset()
		if st == txBlocked {
			// As in a transaction, a Block consumes no retry budget.
			lead.parkBlocked(ctx, w, parks)
			parks++
			continue
		}
		attempt++
		conflicts++
		lead.afterConflict(ctx, w, changed, attempt)
	}
	return lead.txError(op, lead.maxRetries, conflicts, ErrMaxRetries, nil)
}

// attempt bounds the snapshot on every instance of stms, before any
// read, and runs fn once over the bounds, converting conflict and block
// signals into a status.
func (sn *Snap) attempt(stms []*STM, fn func([]uint64) error) (err error, st txStatus) {
	defer recoverSignal(&st)
	for _, s := range stms {
		sn.Bound(s)
	}
	return fn(sn.bounds), txRan
}

// snapConflict charges a snapshot that found vb locked, too new or
// moved to vb's instance, as a transaction's conflict on vb would be.
func snapConflict(vb *varBase) {
	vb.owner.stats.Conflicts.Add(1)
	noteContention(vb)
}
