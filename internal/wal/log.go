package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Segment files: seg-<firstSeq>.wal, a 16-byte header then records.
// The name and the header agree on the first sequence number the
// segment may hold; records inside are dense (seq strictly +1).
const (
	segMagic     = "MTXWAL2\n"
	segHeaderLen = 16 // magic(8) + firstSeq(8)

	defaultSegmentBytes = 64 << 20
	flushInterval       = 20 * time.Millisecond // the Batch level's fsync cadence
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log.
type Options struct {
	// Level is the durability level (default None — callers that want
	// durability say so explicitly).
	Level Level
	// SegmentBytes is the rotation threshold (default 64 MiB). The Log
	// checkpoints itself after every rotation (see Checkpoint).
	SegmentBytes int64
	// Metrics receives write-side observations when non-nil; several
	// Logs may share one.
	Metrics *Metrics
	// OnFail, when non-nil, is called exactly once with the Log's first
	// sticky I/O error, from whichever goroutine hit it (often the
	// batcher), before any caller can see that error. It runs under the
	// Log's failure lock, so it must not block or call back into the
	// Log; the kv layer uses it to flip the store into its degraded mode
	// the moment the WAL fails rather than on the next append.
	OnFail func(err error)
	// FS is the filesystem seam (default OSFS). Fault-injection tests
	// swap in an implementation that fails writes, syncs or opens on a
	// seeded schedule.
	FS FS
}

// Log is a store's append-only write-ahead log with group commit.
//
// Appends are sequenced by the caller (the kv layer calls Append under
// its feed lock, in commit order) and only buffer the encoded
// record; a single batcher goroutine drains the buffer, so any number
// of commits that arrive while a write or fsync is in flight are
// flushed by the next pass as one write and one fsync. Fsync-level
// callers then block in WaitDurable until the batch covering their
// sequence number has been synced — the group-commit rendezvous.
//
// I/O errors are sticky: the first one fails the Log, every waiter is
// released with it, and subsequent appends are dropped with the same
// error. A WAL that cannot write must fail loudly, not silently
// acknowledge.
type Log struct {
	dir      string
	level    Level
	segBytes int64
	m        *Metrics
	onFail   func(error)
	fs       FS

	// ckptMu runs one checkpoint at a time; ckpts counts the rotation
	// checkpoints in flight, which Close waits for.
	ckptMu sync.Mutex
	ckpts  sync.WaitGroup

	// mu guards the append side: the pending buffer, the queue cursor
	// and the batch the batcher last captured. Held only for an
	// in-memory encode — never across I/O.
	mu         sync.Mutex
	pending    []byte
	npending   int
	lastQueued uint64 // seq of the newest queued (or written) record
	syncReq    bool   // an explicit Sync wants an fsync regardless of level
	closed     bool
	// captured is the batcher's last batch, from seq capturedFirst on:
	// being written, or written already. The batcher only reads it
	// until the next capture hands its capacity back to pending, so
	// Follow may copy it under mu.
	captured      []byte
	capturedFirst uint64

	kick chan struct{} // wakes the batcher; capacity 1
	done chan struct{} // closed when the batcher exits

	// Batcher-owned state (no lock: single goroutine): the file, and how
	// many records the queue should hold before the next capture (see
	// settle).
	f      File
	fsize  int64
	expect int

	// durMu guards the durability watermarks and the sticky error;
	// durCond wakes WaitDurable/Sync waiters after each fsync.
	durMu   sync.Mutex
	durCond *sync.Cond
	written uint64 // last seq handed to write(2)
	synced  uint64 // last seq covered by an fsync
	err     error  // sticky I/O failure

	// followers receive a copy of every appended record's encoded
	// bytes — the replication live tail. Guarded by mu; empty on
	// every store that isn't replicating, so Append pays one nil
	// check.
	followers []*Follower
}

// OpenLog opens the log in dir for appending, continuing from the
// state recovery established: the repaired tail segment if one exists,
// a fresh segment at res.LastSeq+1 otherwise. Run RecoverFS first — it
// owns truncation and directory repair; OpenLog assumes a clean tail.
func OpenLog(dir string, res RecoverResult, o Options) (*Log, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	l := &Log{
		dir:        dir,
		level:      o.Level,
		segBytes:   o.SegmentBytes,
		m:          o.Metrics,
		onFail:     o.OnFail,
		fs:         fsOrOS(o.FS),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		lastQueued: res.LastSeq,
		written:    res.LastSeq,
		synced:     res.LastSeq,

		capturedFirst: res.LastSeq + 1,
	}
	l.durCond = sync.NewCond(&l.durMu)
	if res.tailPath != "" {
		f, err := l.fs.OpenFile(res.tailPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen tail: %w", err)
		}
		l.f, l.fsize = f, res.tailSize
	} else {
		f, err := createSegment(l.fs, dir, res.LastSeq+1)
		if err != nil {
			return nil, err
		}
		l.f, l.fsize = f, segHeaderLen
	}
	go l.run()
	return l, nil
}

// segmentName returns the file name of the segment starting at firstSeq.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("seg-%020d.wal", firstSeq)
}

// createSegment creates (exclusively) a new segment file, writes its
// header, fsyncs it and the directory, and returns it open for append.
func createSegment(fsys FS, dir string, firstSeq uint64) (File, error) {
	path := filepath.Join(dir, segmentName(firstSeq))
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], firstSeq)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append encodes ops as record seq and queues it for the batcher. Calls
// must arrive in commit order with dense sequence numbers (the caller
// holds its own sequencing lock around Append); the record is on its
// way to disk when Append returns, durable once WaitDurable(seq)
// returns at the Fsync level. Append itself never does I/O.
func (l *Log) Append(seq uint64, ops []Op) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.durMu.Lock()
	sticky := l.err
	l.durMu.Unlock()
	if sticky != nil {
		// The chain is broken: buffering more records could only tear a
		// hole in the log if the disk came back. Refuse, with the original
		// failure (this is what the doc's "subsequent appends are dropped
		// with the same error" means — and what the kv layer counts as a
		// shed write).
		l.mu.Unlock()
		return sticky
	}
	if seq != l.lastQueued+1 {
		l.mu.Unlock()
		// Sticky: a skipped sequence can never be repaired, and the
		// caller's tap may not check the return — surface it on every
		// later WaitDurable/Sync instead of dropping records silently.
		err := fmt.Errorf("wal: append seq %d, want %d (out-of-order commit tap?)", seq, l.lastQueued+1)
		l.fail(err)
		return err
	}
	start := len(l.pending)
	var err error
	l.pending, err = AppendRecord(l.pending, 0, seq, ops)
	if err != nil {
		l.mu.Unlock()
		l.fail(err) // same reasoning: a missing record is a broken chain
		return err
	}
	l.lastQueued = seq
	l.npending++
	if l.m != nil {
		// Counted when queued, not when the batcher drains, so the
		// count never lags a write its caller has been acknowledged.
		l.m.Appends.Add(1)
	}
	if len(l.followers) > 0 {
		l.pushFollowersLocked(seq, l.pending[start:])
	}
	l.mu.Unlock()
	l.kickBatcher()
	return nil
}

func (l *Log) kickBatcher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// WaitDurable blocks until every record up to and including seq is
// fsynced, returning the Log's sticky error if it failed instead. At
// levels below Fsync it still waits for the next periodic or explicit
// fsync to cover seq — which is why fsync-level acknowledgment simply
// is a WaitDurable call.
func (l *Log) WaitDurable(seq uint64) error {
	l.durMu.Lock()
	for l.synced < seq && l.err == nil {
		l.durCond.Wait()
	}
	err := l.err
	l.durMu.Unlock()
	return err
}

// Sync flushes everything queued so far and fsyncs it, at every level
// (including None — Sync is the explicit durability barrier a
// checkpoint takes before it reads the files).
func (l *Log) Sync() error {
	_, err := l.sync()
	return err
}

// sync is Sync, returning the last sequence it covered.
func (l *Log) sync() (uint64, error) {
	l.mu.Lock()
	target := l.lastQueued
	if l.closed {
		l.mu.Unlock()
		// The batcher has drained; settle for the watermark check.
		l.durMu.Lock()
		err := l.err
		synced := l.synced
		l.durMu.Unlock()
		if err == nil && synced < target {
			err = ErrClosed
		}
		return target, err
	}
	l.syncReq = true
	l.mu.Unlock()
	l.kickBatcher()
	return target, l.WaitDurable(target)
}

// Checkpoint syncs the log and writes a snapshot exact at the last
// sequence the sync covered, folded from the files alone (see
// snapshot.go), then compacts. It waits for a checkpoint in progress.
func (l *Log) Checkpoint() error {
	through, err := l.sync()
	if err != nil {
		return err
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	return l.checkpoint(through)
}

// checkpoint runs one checkpoint through the log's FS, counting it.
// Caller holds ckptMu.
func (l *Log) checkpoint(through uint64) error {
	wrote, err := checkpoint(l.fs, l.dir, through)
	if l.m != nil && err != nil {
		l.m.CheckpointFails.Add(1)
	} else if l.m != nil && wrote {
		l.m.Checkpoints.Add(1)
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	return nil
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.durMu.Lock()
	defer l.durMu.Unlock()
	return l.err
}

// Close drains the batcher, fsyncs at levels above None, closes the
// segment and waits for the rotation checkpoints in flight, so nothing
// of the log touches the directory once it returns. Appends after Close
// fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		l.ckpts.Wait()
		return l.Err()
	}
	l.closed = true
	if l.level != None {
		l.syncReq = true
	}
	l.mu.Unlock()
	l.dropFollowers()
	l.kickBatcher()
	<-l.done
	if err := l.f.Close(); err != nil {
		l.fail(err)
	}
	// Release anyone parked in WaitDurable past what was ever queued.
	l.durCond.Broadcast()
	l.ckpts.Wait()
	return l.Err()
}

// run is the batcher: the only goroutine that touches the segment
// file. Each pass swaps out everything queued since the last one and
// issues one write — group commit is this drain being a batch, not a
// record. Fsync policy per pass: always at Fsync level, on the flush
// interval at Batch level, on explicit request (Sync) at any level.
func (l *Log) run() {
	defer close(l.done)
	var (
		buf      []byte
		lastSync = time.Now()
	)
	for {
		if l.level == Fsync {
			l.settle()
		}
		l.mu.Lock()
		buf, l.pending = l.pending, buf[:0]
		l.captured, l.capturedFirst = buf, l.lastQueued+1-uint64(l.npending)
		l.npending = 0
		end := l.lastQueued
		syncReq := l.syncReq
		l.syncReq = false
		closed := l.closed
		l.mu.Unlock()

		if len(buf) > 0 {
			l.writeBatch(buf, end)
		}
		unsynced := l.unsyncedLocked(end)
		switch {
		case syncReq && unsynced,
			l.level == Fsync && unsynced,
			l.level == Batch && unsynced && time.Since(lastSync) >= flushInterval:
			l.syncFile(end)
			lastSync = time.Now()
		}
		if closed {
			return
		}
		if l.fsize >= l.segBytes {
			l.rotate(end)
		}

		// Sleep until kicked; at Batch level with an unsynced tail,
		// also wake at the flush deadline so idle stores still sync.
		var timerC <-chan time.Time
		var timer *time.Timer
		if l.level == Batch && l.unsyncedLocked(end) {
			d := flushInterval - time.Since(lastSync)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case <-l.kick:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// settleStill is how many yields in a row without a new record end a
// settle early: long enough for committers the fsync woke to run their
// next transaction on a busy machine, short beside any fsync.
const settleStill = 256

// settle holds the next capture for the committers the last fsync
// released. At the Fsync level each of them is on its way back with its
// next append; capturing before they arrive gives the stragglers an
// fsync of their own and the returning group the next — one-record and
// full batches in turn — where waiting lets them share one. The batcher
// yields until the queue holds what it held when the fsync returned
// plus one record per record that fsync covered, or until it stops
// growing for settleStill yields — so a committer with no next write is
// not waited for longer than that. Yields, not a timer: a released
// committer needs processor time, not wall time, to come back.
func (l *Log) settle() {
	want := l.expect
	l.expect = 0
	for n, still := -1, 0; still < settleStill; {
		l.mu.Lock()
		m := l.npending
		l.mu.Unlock()
		if m >= want {
			return
		}
		if m == n {
			still++
		} else {
			n, still = m, 0
		}
		runtime.Gosched()
	}
}

// unsyncedLocked reports whether records up to end are written but not
// yet covered by an fsync. The batcher writes everything it captures
// before calling this, so written >= end holds whenever it matters.
func (l *Log) unsyncedLocked(end uint64) bool {
	l.durMu.Lock()
	defer l.durMu.Unlock()
	return l.err == nil && l.synced < end && l.written >= end
}

// writeBatch writes one coalesced batch and advances the written
// watermark.
func (l *Log) writeBatch(buf []byte, end uint64) {
	t0 := time.Now()
	_, err := l.f.Write(buf)
	if l.m != nil {
		l.m.AppendNs.Observe(time.Since(t0).Nanoseconds())
		l.m.Batches.Add(1)
		l.m.Bytes.Add(uint64(len(buf)))
	}
	if err != nil {
		l.fail(fmt.Errorf("wal: write: %w", err))
		return
	}
	l.fsize += int64(len(buf))
	l.durMu.Lock()
	if end > l.written {
		l.written = end
	}
	l.durMu.Unlock()
}

// syncFile fsyncs the segment and releases every waiter at or below end.
func (l *Log) syncFile(end uint64) {
	if l.Err() != nil {
		return
	}
	t0 := time.Now()
	err := l.f.Sync()
	if l.m != nil {
		l.m.FsyncNs.Observe(time.Since(t0).Nanoseconds())
		l.m.Fsyncs.Add(1)
	}
	if err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.durMu.Lock()
	covered := 0
	if end > l.synced {
		covered, l.synced = int(end-l.synced), end
	}
	l.durMu.Unlock()
	if covered > 0 {
		l.mu.Lock()
		l.expect = l.npending + covered
		l.mu.Unlock()
	}
	l.durCond.Broadcast()
}

// rotate finishes the current segment (fsyncing it so the prefix the
// next segment builds on is durable), opens the next one at end+1 and
// checkpoints through end on its own goroutine — skipped while another
// checkpoint runs, since the next one folds everything this one would;
// a failure is counted, and the next rotation tries again.
func (l *Log) rotate(end uint64) {
	if l.Err() != nil {
		return
	}
	l.syncFile(end)
	if err := l.f.Close(); err != nil {
		l.fail(fmt.Errorf("wal: close rotated segment: %w", err))
		return
	}
	f, err := createSegment(l.fs, l.dir, end+1)
	if err != nil {
		l.fail(err)
		return
	}
	l.f, l.fsize = f, segHeaderLen
	if l.m != nil {
		l.m.Rotations.Add(1)
	}
	l.ckpts.Add(1)
	go func() {
		defer l.ckpts.Done()
		if l.ckptMu.TryLock() {
			defer l.ckptMu.Unlock()
			l.checkpoint(end)
		}
	}()
}

// fail records the first I/O error and releases every waiter with it.
// Followers are killed too: a broken chain must not keep shipping.
// Only the first failure counts in Metrics and fires OnFail; repeats
// of a sticky error are not new faults. Both happen under durMu, in
// the section that latches the error, so no caller can see the error
// before it is counted and reported.
func (l *Log) fail(err error) {
	l.durMu.Lock()
	if l.err == nil {
		l.err = err
		if l.m != nil {
			l.m.Failures.Add(1)
		}
		if l.onFail != nil {
			l.onFail(err)
		}
	}
	l.durMu.Unlock()
	l.durCond.Broadcast()
	l.dropFollowers()
}
