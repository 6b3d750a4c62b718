package stm

import "context"

// OrElse runs the alternatives as one blocking choice: each attempt
// tries them in order and commits the first one that neither blocks nor
// conflicts; an alternative that calls Tx.Block is rolled back (its
// effects discarded, its footprint remembered) and the next one runs.
// Only when every alternative blocks does the call park — on the union
// of all their footprints, so whichever branch's world changes first
// re-runs the whole choice from the top. This is the transactional
// analogue of mixed choice between communication branches: "pop from
// the high-priority queue, or else the low-priority one, or else wait
// for either to fill" is
//
//	s.OrElse(
//	        func(tx *stm.Tx) error { ... hi.DequeueTx(tx) or tx.Block() ... },
//	        func(tx *stm.Tx) error { ... lo.DequeueTx(tx) or tx.Block() ... },
//	)
//
// Each alternative commits atomically by itself (first-match semantics:
// the committed effects are exactly one alternative's); a conflicted
// alternative restarts the choice from the first one. OrElse panics if
// called with no alternatives.
func (s *STM) OrElse(alts ...func(*Tx) error) error {
	return s.orElse(nil, alts)
}

// OrElseCtx is OrElse honoring ctx between attempts and while parked,
// with the same contract as AtomicallyCtx.
func (s *STM) OrElseCtx(ctx context.Context, alts ...func(*Tx) error) error {
	return s.orElse(ctx, alts)
}

func (s *STM) orElse(ctx context.Context, alts []func(*Tx) error) error {
	if len(alts) == 0 {
		panic("stm: OrElse requires at least one alternative")
	}
	one := []*STM{s}
	conflicts, parks := 0, 0
	for attempt := 0; attempt < s.maxRetries; {
		if err := ctxErr(ctx); err != nil {
			return s.txError("or-else", attempt, conflicts, ErrCanceled, err)
		}
		// w accumulates the union of blocked alternatives' footprints;
		// it only survives to the park when every alternative blocked
		// (any other outcome returns or restarts the choice).
		var w *waiter
		blockedAll := true
		for _, fn := range alts {
			txs := beginAll(one)
			tx := txs[0]
			err, st := runBody(txs, &body{tx: fn})
			if st == txBlocked {
				if w == nil {
					w = s.newWaiter()
				}
				w.abortInto(txs)
				continue // try the next alternative
			}
			if st == txConflicted {
				if w != nil {
					w.release()
				}
				attempt = conflicted(ctx, one, txs, attempt)
				conflicts++
				blockedAll = false
				break // restart the choice from the first alternative
			}
			if err != nil {
				abortAll(txs)
				if w != nil {
					w.release()
				}
				s.stats.UserAborts.Add(1)
				return err
			}
			if tx.prepare() {
				tx.commitPrepared()
				tx.finishTx()
				if w != nil {
					w.release()
				}
				s.stats.Commits.Add(1)
				return nil
			}
			if w != nil {
				w.release()
			}
			attempt = conflicted(ctx, one, txs, attempt)
			conflicts++
			blockedAll = false
			break
		}
		if blockedAll {
			// Every alternative blocked: park on the combined footprint.
			// (w is non-nil here — each blocked alternative allocated it.)
			s.parkBlocked(ctx, w, parks)
			parks++
		}
	}
	return s.txError("or-else", s.maxRetries, conflicts, ErrMaxRetries, nil)
}
