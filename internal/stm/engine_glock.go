package stm

// glockEngine serializes every transaction of the instance under one
// mutex (a buffered channel, so no TryLock gymnastics): the strongest —
// and slowest — baseline. Under the mutex it is the eager engine: a
// write locks its location's word on first touch and lands in place
// behind the undo log, and commit and rollback release the word at a
// fresh version. No other transaction of the instance can hold a word
// while the mutex is held, so the locks order only what reads outside
// the mutex: a Snap, and transactions of other instances
// (AtomicallyMulti) reading what this one committed.
type glockEngine struct{ eagerEngine }

func (glockEngine) begin(tx *Tx) {
	tx.s.glock <- struct{}{}
	// Snapshot after acquisition so the transaction observes every commit
	// serialized before it.
	tx.rv = tx.s.clockBegin()
}

func (glockEngine) finish(tx *Tx) { <-tx.s.glock }
