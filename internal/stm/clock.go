package stm

// The version clock is classic TL2 "GV1": one global word per instance,
// fetch-added by every writing commit and loaded by every begin. The word
// sits on a cache line of its own (see the STM layout comment), so the
// only cost it adds to a commit is the RMW itself.
//
// Why not a leased stride of timestamps: handing each committer a
// pre-allocated stride [base+1, base+K] (one fetch-add of K) is unsound
// under TL2 validation. The bump makes base+K visible to reader snapshots
// at once, while the stride's earlier timestamps are published later — so
// a reader with rv = base+K can accept a write at base+1 that happened
// after its snapshot, and commit-time validation (version ≤ rv, unlocked)
// cannot tell. A write version must come from the clock after the
// writer's locks are held, and be above every snapshot taken before.

// clockBegin snapshots the read version. Engines call it from begin
// (and extension reloads through it).
func (s *STM) clockBegin() uint64 { return s.clock.Load() }

// clockWV returns the write version of a committing writer. It must be
// called only after every commit-time lock of the write set is held.
func (s *STM) clockWV() uint64 { return s.clock.Add(1) }

// clockTouch returns a fresh version for STM.Touch: above the clock, so
// concurrent snapshots observe the touch as a conflict (the point of
// touching) and later snapshots accept it.
func (s *STM) clockTouch() uint64 { return s.clock.Add(1) }
