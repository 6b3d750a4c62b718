package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/kv"
	"modtx/internal/wal"
)

// Streamer is the primary side: it serves each connected replica the
// store's WAL, catch-up then live tail.
//
// Per session (one stream goroutine per connection) a pass is:
//
//  1. Catch-up: the log's Scan from the replica's cursor — read-only
//     against the live appender, through the log's filesystem seam —
//     sending raw records. If the cursor predates the oldest retained
//     segment (ErrCompacted), ship the log's Snapshot instead and
//     resume from its sequence. A read error ends the session.
//  2. Attach a wal.Follower, once. Every record below its low-water
//     mark is in the segment files, so if the mark is above the scan's
//     end (records were written between scan and attach), one more
//     scan reaches it.
//  3. Tail: forward the follower's batches, skipping the overlap below
//     the cursor. A follower killed by overflow starts the next pass —
//     slow replicas and reconnects share one repair path. A follower
//     killed because the log closed or failed starts one too, whose
//     attach returns the log's error and ends the session; the
//     replica's reconnect backoff is the only wait.
type Streamer struct {
	store *kv.Store
	log   *wal.Log // the store's: every session reads it

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Stats, exposed via STATS REPL on the primary.
	connected atomic.Int64  // current sessions
	served    atomic.Uint64 // sessions ever
	records   atomic.Uint64 // record frames sent
	snapshots atomic.Uint64 // snapshot transfers sent
}

// followLimit is each session's live-tail buffer: a replica falling
// this far behind the appender is re-fed from segments instead.
const followLimit = 4 << 20

const pingEvery = 1 * time.Second

// frameBatch is the flush threshold for batched frames.
const frameBatch = 32 << 10

// NewStreamer wraps a durable store. Opening fails on a store with no
// WAL — there is nothing to ship.
func NewStreamer(s *kv.Store) (*Streamer, error) {
	lg, err := s.ReplLog()
	if err != nil {
		return nil, err
	}
	return &Streamer{store: s, log: lg, sessions: make(map[*session]struct{})}, nil
}

// Serve accepts replica connections on ln until Close (or a listener
// error). It owns ln and closes it on return.
func (st *Streamer) Serve(ln net.Listener) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		ln.Close()
		return errors.New("cluster: streamer closed")
	}
	st.ln = ln
	st.mu.Unlock()
	defer ln.Close()
	for {
		conn, err := ln.Accept()
		if err != nil {
			st.mu.Lock()
			closed := st.closed
			st.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s := newSession(st, conn)
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			conn.Close()
			return nil
		}
		st.sessions[s] = struct{}{}
		st.wg.Add(1)
		st.mu.Unlock()
		go func() {
			defer st.wg.Done()
			st.serveSession(s)
		}()
	}
}

// Close stops accepting, tears down every session, and waits for their
// goroutines to drain.
func (st *Streamer) Close() {
	st.mu.Lock()
	st.closed = true
	ln := st.ln
	ss := make([]*session, 0, len(st.sessions))
	for s := range st.sessions {
		ss = append(ss, s)
	}
	st.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range ss {
		s.close()
	}
	st.wg.Wait()
}

// StreamerStats is the primary-side replication snapshot (STATS REPL).
type StreamerStats struct {
	Role      string `json:"role"` // "primary"
	Connected int64  `json:"connected"`
	Served    uint64 `json:"served"`
	Records   uint64 `json:"records"`
	Snapshots uint64 `json:"snapshots"`
}

// Stats snapshots the streamer.
func (st *Streamer) Stats() StreamerStats {
	return StreamerStats{
		Role:      "primary",
		Connected: st.connected.Load(),
		Served:    st.served.Load(),
		Records:   st.records.Load(),
		Snapshots: st.snapshots.Load(),
	}
}

// session is one replica connection: a write lock over the conn shared
// by the stream and the pinger, the live follower (closed on teardown so
// a blocked Take unwinds), and a cancel.
type session struct {
	st     *Streamer
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	wmu     sync.Mutex
	scratch []byte // the pinger's frame
	out     []byte // the stream's queued frames (stream goroutine only)

	fmu      sync.Mutex
	follower *wal.Follower
	dead     bool
}

func newSession(st *Streamer, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{st: st, conn: conn, ctx: ctx, cancel: cancel}
}

func (s *session) close() {
	s.cancel()
	s.conn.Close()
	s.fmu.Lock()
	s.dead = true
	f := s.follower
	s.follower = nil
	s.fmu.Unlock()
	if f != nil {
		f.Close()
	}
}

// track registers the follower for teardown (nil unregisters it); false
// means the session is already closing and the caller must not block on
// the follower.
func (s *session) track(f *wal.Follower) bool {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.dead {
		return false
	}
	s.follower = f
	return true
}

// writeFrame sends the pinger's frame; wmu serializes it with the
// stream's writes.
func (s *session) writeFrame(typ uint8, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.scratch = AppendFrame(s.scratch[:0], typ, 0, payload)
	_, err := s.conn.Write(s.scratch)
	return err
}

// queue appends one frame to the stream's output and writes the output
// once it reaches frameBatch bytes. Catch-up, snapshot transfer and the
// live tail all send this way, one write per batch of frames rather
// than a syscall per record, which is worth an order of magnitude in
// catch-up throughput.
func (s *session) queue(typ uint8, payload []byte) error {
	s.out = AppendFrame(s.out, typ, 0, payload)
	if len(s.out) < frameBatch {
		return nil
	}
	return s.flush()
}

// flush writes the queued frames, if any.
func (s *session) flush() error {
	if len(s.out) == 0 {
		return nil
	}
	s.wmu.Lock()
	_, err := s.conn.Write(s.out)
	s.wmu.Unlock()
	s.out = s.out[:0]
	return err
}

func (st *Streamer) serveSession(s *session) {
	defer func() {
		s.close()
		st.mu.Lock()
		delete(st.sessions, s)
		st.mu.Unlock()
		st.connected.Add(-1)
	}()
	st.connected.Add(1)
	st.served.Add(1)

	// Handshake: our position first, then the replica's cursor.
	pos, err := st.store.ReplPosition()
	if err != nil {
		return
	}
	s.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := s.conn.Write(AppendHello(nil, pos)); err != nil {
		return
	}
	from, err := ReadHello(s.conn)
	if err != nil {
		return
	}
	s.conn.SetDeadline(time.Time{})

	// The replica sends nothing after its cursor hello: any read
	// result — data or EOF — means the connection is done.
	go func() {
		var one [1]byte
		s.conn.Read(one[:])
		s.close()
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.stream(s, from); err != nil && s.ctx.Err() == nil {
			s.close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(pingEvery)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				if err := s.writeFrame(FramePing, nil); err != nil {
					s.close()
					return
				}
			}
		}
	}()
	wg.Wait()
}

// stream runs the session's passes (see Streamer) until the session
// dies or the log's error ends it.
func (st *Streamer) stream(s *session, from uint64) error {
	var err error
	cursor := max(from, 1)
	var tail []byte // follower batch buffer, recycled through Take
	for s.ctx.Err() == nil {
		if cursor, err = st.catchUp(s, cursor); err != nil {
			return err
		}
		f, low, err := st.log.Follow(followLimit)
		if err != nil {
			return err
		}
		if low > cursor {
			if cursor, err = st.catchUp(s, cursor); err == nil && cursor < low {
				err = fmt.Errorf("cluster: segment files end at %d, below the live tail's mark %d", cursor, low)
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		if !s.track(f) {
			f.Close()
			return nil
		}
		for {
			b, _, ok := f.Take(tail)
			if !ok {
				break // overflow, or the log or the session closed
			}
			if cursor, err = st.forward(s, b, cursor); err != nil {
				break
			}
			tail = b
		}
		s.track(nil)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// catchUp sends the records from cursor on that the log's segment
// files hold and returns the sequence after the last one sent. When
// the files no longer reach back to cursor it sends the log's snapshot
// first and scans from the sequence after it.
func (st *Streamer) catchUp(s *session, cursor uint64) (uint64, error) {
	send := func(_ uint64, raw []byte) error {
		st.records.Add(1)
		return s.queue(FrameRecord, raw)
	}
	next, err := st.log.Scan(cursor, send)
	if errors.Is(err, wal.ErrCompacted) {
		seq, recs, serr := st.log.Snapshot()
		if serr != nil {
			return cursor, serr
		}
		if err := st.sendSnapshot(s, seq, recs); err != nil {
			return cursor, err
		}
		next, err = st.log.Scan(seq+1, send)
	}
	if ferr := s.flush(); err == nil {
		err = ferr
	}
	return next, err
}

// forward sends the records of one follower batch from cursor on and
// returns the sequence after the last one sent. The frames are queued
// as catch-up's are, so a batch under frameBatch bytes is one write. A
// log batch is always whole records, so a record that fails
// wal.WalkRecord ends the session. The walk builds nothing and the
// frames reuse the session's buffer: forwarding allocates nothing.
func (st *Streamer) forward(s *session, b []byte, cursor uint64) (uint64, error) {
	for off := 0; off < len(b); {
		seq, n, err := wal.WalkRecord(b[off:], nil)
		if err != nil {
			return cursor, err
		}
		if seq >= cursor {
			if err := s.queue(FrameRecord, b[off:off+n]); err != nil {
				return cursor, err
			}
			st.records.Add(1)
			cursor = seq + 1
		}
		off += n
	}
	return cursor, s.flush()
}

// sendSnapshot ships a snapshot: begin (with the sequence it is exact
// at), its records re-encoded, end — queued as the segment catch-up
// is.
func (st *Streamer) sendSnapshot(s *session, seq uint64, recs []wal.Record) error {
	st.snapshots.Add(1)
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], seq)
	if err := s.queue(FrameSnapBegin, p[:]); err != nil {
		return err
	}
	var enc []byte
	for _, rec := range recs {
		var err error
		enc, err = wal.AppendRecord(enc[:0], 0, rec.Seq, rec.Ops)
		if err != nil {
			return err
		}
		if err := s.queue(FrameSnapRec, enc); err != nil {
			return err
		}
	}
	return s.queue(FrameSnapEnd, nil)
}
