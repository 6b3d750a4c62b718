package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/kv"
	"modtx/internal/wal"
)

// readTimeout bounds each read from the primary's socket; the primary
// pings every second, so a silent connection this long is dead. A
// variable only so that a test can shorten it.
var readTimeout = 15 * time.Second

// deadlineReader arms conn's read deadline just before each read from
// it. Under the client's bufio.Reader that is once per socket read, not
// once per frame: a frame served from the buffer costs no syscall, and
// a primary that goes silent — between frames or inside one — still
// times out after readTimeout.
type deadlineReader struct{ conn net.Conn }

func (d deadlineReader) Read(p []byte) (int, error) {
	if err := d.conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Read(p)
}

// Client feeds a primary's stream into a kv.Replica, reconnecting with
// backoff: every reconnect re-handshakes from the replica's current
// position, and the replica's duplicate suppression absorbs overlap,
// so the loop needs no resume state of its own.
type Client struct {
	Addr    string
	Replica *kv.Replica
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Dial, when set, replaces the default dialer. The fault-injection
	// harness uses it to interpose a chaos network; nil means net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	connects  atomic.Uint64
	connected atomic.Bool
	mu        sync.Mutex
	lastErr   string
}

// ClientStats is the replica-side connection snapshot, merged with
// kv.ReplicaStats into STATS REPL.
type ClientStats struct {
	Role      string `json:"role"` // "replica"
	Primary   string `json:"primary"`
	Connected bool   `json:"connected"`
	Connects  uint64 `json:"connects"`
	LastError string `json:"last_error,omitempty"`
}

// Stats snapshots the client.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	lastErr := c.lastErr
	c.mu.Unlock()
	return ClientStats{
		Role:      "replica",
		Primary:   c.Addr,
		Connected: c.connected.Load(),
		Connects:  c.connects.Load(),
		LastError: lastErr,
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) noteErr(err error) {
	c.mu.Lock()
	c.lastErr = err.Error()
	c.mu.Unlock()
}

// Run streams until ctx is done, reconnecting on transient errors.
// A protocol-level mismatch (wrong magic) is a configuration error and
// returns immediately instead of retrying.
func (c *Client) Run(ctx context.Context) error {
	bo := newBackoff(250*time.Millisecond, 4*time.Second, rand.Uint64())
	for {
		start := time.Now()
		err := c.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrProto) {
			return err
		}
		if err != nil {
			c.noteErr(err)
			c.logf("replica: stream from %s: %v (reconnecting)", c.Addr, err)
		}
		if time.Since(start) > 10*time.Second {
			bo.reset() // the last session was healthy
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(bo.next()):
		}
	}
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(ctx, "tcp", c.Addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", c.Addr)
}

func (c *Client) session(ctx context.Context) error {
	conn, err := c.dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	r := c.Replica
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	pos, err := ReadHello(conn)
	if err != nil {
		return err
	}
	r.SetTarget(pos)
	if _, err := conn.Write(AppendHello(nil, r.Position()+1)); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	c.connects.Add(1)
	c.connected.Store(true)
	defer c.connected.Store(false)
	c.logf("replica: streaming from %s at %d (primary at %d)", c.Addr, r.Position(), pos)

	var (
		snapping bool // between FrameSnapBegin and FrameSnapEnd
		snapSeq  uint64
		snapRecs []wal.Record
	)
	// Buffered reads: frames are small and the catch-up path sends them
	// in dense batches, so reading through a buffer collapses thousands
	// of read syscalls, and the read deadline is armed once per socket
	// read (deadlineReader), not once per frame.
	br := bufio.NewReaderSize(deadlineReader{conn}, 64<<10)
	// Records accumulate while more frames are already buffered and
	// apply in one batch when the read would block (or at the cap):
	// batch apply is what lets the replica merge catch-up runs into few
	// local transactions instead of one per record. The pending records'
	// ops and values live in ops and vals, reused from batch to batch:
	// ApplyRecords keeps neither (a Txn.Set copies its value).
	const maxPending = 1024
	var (
		pending []wal.Record
		ops     []wal.Op
		vals    []byte
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := r.ApplyRecords(pending)
		clear(pending)
		pending = pending[:0]
		clear(ops)
		ops, vals = ops[:0], vals[:0]
		return err
	}
	addOp := func(kind wal.Kind, key, val []byte, v int64) {
		op := wal.Op{Kind: kind, Key: string(key), N: v}
		if kind == wal.KindSet {
			start := len(vals)
			vals = append(vals, val...)
			op.Val = vals[start:len(vals):len(vals)]
		}
		ops = append(ops, op)
	}
	var buf []byte
	for {
		var f Frame
		f, buf, err = ReadFrame(br, buf)
		if err != nil {
			return err
		}
		switch f.Type {
		case FramePing:
			if err := flush(); err != nil {
				return err
			}
		case FrameRecord:
			start := len(ops)
			seq, n, derr := wal.WalkRecord(f.Payload, addOp)
			if derr != nil || n != len(f.Payload) {
				return fmt.Errorf("%w: bad record frame", ErrProto)
			}
			pending = append(pending, wal.Record{Seq: seq, Ops: ops[start:len(ops):len(ops)]})
			if len(pending) >= maxPending || br.Buffered() == 0 {
				if aerr := flush(); aerr != nil {
					// A gap means our cursor raced compaction; reconnecting
					// re-handshakes and takes the snapshot path.
					return aerr
				}
			}
		case FrameSnapBegin:
			if err := flush(); err != nil {
				return err
			}
			if len(f.Payload) != 8 {
				return fmt.Errorf("%w: bad snapshot begin", ErrProto)
			}
			snapping, snapSeq, snapRecs = true, binary.LittleEndian.Uint64(f.Payload), nil
		case FrameSnapRec:
			if !snapping {
				return fmt.Errorf("%w: snapshot record outside transfer", ErrProto)
			}
			rec, n, derr := wal.DecodeRecord(f.Payload)
			if derr != nil || n != len(f.Payload) {
				return fmt.Errorf("%w: bad snapshot record", ErrProto)
			}
			snapRecs = append(snapRecs, rec)
		case FrameSnapEnd:
			if err := flush(); err != nil {
				return err
			}
			if !snapping {
				return fmt.Errorf("%w: snapshot end outside transfer", ErrProto)
			}
			snapping = false
			if err := r.Reset(snapSeq, snapRecs); err != nil {
				return err
			}
			snapRecs = nil
		}
	}
}
