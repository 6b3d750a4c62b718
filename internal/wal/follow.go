package wal

import "sync"

// The live tail: a Follower registered on a Log receives a copy of
// every record's encoded bytes as it is appended — before it is
// written, in append (= commit) order. This is the replication
// stream's hot path: the primary's streamer catches up from the
// segment files, attaches a Follower per replica session, reads the
// files once more up to the follower's low-water mark if they grew
// meanwhile, then switches to the follower buffer.
//
// Delivery never blocks an append: bytes pile up in the follower's
// buffer, and a reader that falls further behind than the buffer
// limit kills the follower (ok=false from Take). The reader then
// re-catches-up from segments and attaches a fresh Follower — the
// same repair path as a reconnect, so slowness and disconnection are
// one case, and a slow replica can never stall a commit.

// Follower is one registered live-tail consumer of a Log.
type Follower struct {
	l     *Log
	limit int

	mu    sync.Mutex
	buf   []byte // encoded records, dense from first
	first uint64 // seq of the first record in buf
	next  uint64 // seq after the last record in buf
	dead  bool   // overflowed, closed, or the log failed/closed

	ready chan struct{} // capacity 1: signals buffered data or death
}

// Follow attaches a live-tail follower. The returned low-water mark
// is the first sequence the follower will deliver; every record below
// it is in the segment files when Follow returns. limitBytes bounds
// the follower's buffer; at or beyond it the follower is killed rather
// than blocking appends (min 64 KiB). On a closed or failed log Follow
// returns ErrClosed or the log's error, and no follower.
//
// The batch the batcher captured last and the queue behind it are
// seeded into the follower at attach time, so the (segments, follower)
// pair covers every sequence with no gap and no wait: the files hold
// everything below the low-water mark, the follower everything at and
// above it (its first records may be in the files too, if that batch's
// write has landed).
func (l *Log) Follow(limitBytes int) (*Follower, uint64, error) {
	if limitBytes < 64<<10 {
		limitBytes = 64 << 10
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	if err := l.Err(); err != nil {
		return nil, 0, err
	}
	f := &Follower{l: l, limit: limitBytes, ready: make(chan struct{}, 1)}
	f.first, f.next = l.capturedFirst, l.lastQueued+1
	f.buf = append(append(f.buf, l.captured...), l.pending...)
	l.followers = append(l.followers, f)
	if len(f.buf) > 0 {
		f.signal()
	}
	return f, f.first, nil
}

// pushFollowersLocked hands one appended record's bytes to every live
// follower and prunes dead ones. Caller holds l.mu.
func (l *Log) pushFollowersLocked(seq uint64, rec []byte) {
	live := l.followers[:0]
	for _, f := range l.followers {
		if f.push(seq, rec) {
			live = append(live, f)
		}
	}
	for i := len(live); i < len(l.followers); i++ {
		l.followers[i] = nil
	}
	l.followers = live
}

// dropFollowers kills every follower: the log is closing or failed.
func (l *Log) dropFollowers() {
	l.mu.Lock()
	fs := l.followers
	l.followers = nil
	l.mu.Unlock()
	for _, f := range fs {
		f.kill()
	}
}

// push buffers one record, killing the follower on overflow. Reports
// whether the follower is still live. Never blocks.
func (f *Follower) push(seq uint64, rec []byte) bool {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return false
	}
	if len(f.buf)+len(rec) > f.limit {
		f.dead = true
		f.mu.Unlock()
		f.signal()
		return false
	}
	if seq != f.next {
		// Cannot happen while attached (appends are dense), but a gap
		// must never ship silently.
		f.dead = true
		f.mu.Unlock()
		f.signal()
		return false
	}
	f.buf = append(f.buf, rec...)
	f.next = seq + 1
	f.mu.Unlock()
	f.signal()
	return true
}

func (f *Follower) signal() {
	select {
	case f.ready <- struct{}{}:
	default:
	}
}

func (f *Follower) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
	f.signal()
}

// Take blocks until the follower has buffered records, then returns
// them: buf is a dense run of encoded records starting at seq first.
// reuse, when non-nil, donates its capacity for the next buffer (pass
// the previous Take's buf back once consumed). ok=false means the
// follower is dead — it overflowed, the log closed, or Close was
// called — and the reader must re-catch-up from segments; a dead
// follower never returns buffered data, so nothing it held can be
// mistaken for a complete stream.
func (f *Follower) Take(reuse []byte) (buf []byte, first uint64, ok bool) {
	for {
		f.mu.Lock()
		if f.dead {
			f.mu.Unlock()
			return nil, 0, false
		}
		if len(f.buf) > 0 {
			buf, f.buf = f.buf, reuse[:0]
			first = f.first
			f.first = f.next
			f.mu.Unlock()
			return buf, first, true
		}
		f.mu.Unlock()
		<-f.ready
	}
}

// Close detaches the follower. Safe to call concurrently with Take
// (which returns ok=false) and more than once.
func (f *Follower) Close() {
	f.kill()
	l := f.l
	l.mu.Lock()
	for i, o := range l.followers {
		if o == f {
			l.followers = append(l.followers[:i], l.followers[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}
