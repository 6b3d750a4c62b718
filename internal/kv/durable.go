package kv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// Durability: each shard's commits stream into a per-shard write-ahead
// log (internal/wal), sequenced by the STM commit tap so log order is
// commit order, and recovery replays snapshot + log tail back into the
// shard on Open.
//
// The flow of one durable write: the operation's transaction body
// records its effects as wal.Ops in a pooled pendingOps and attaches
// it with Tx.SetTapData; if (and only if) the attempt commits, the
// shard's tap runs at the serialization point, assigns the next
// per-shard commit sequence under the feed lock, hands the encoded
// record to the log's group-commit batcher, and fans the ops out to
// subscribers (feed.go) — all without blocking on I/O, so commits are
// never held up by the disk. At the Fsync level the operation then
// waits (after its transaction is fully committed and unlocked) for
// the batcher's fsync to cover its sequence number.
//
// Ops are logged in absolute form — counter writes as KindCounterSet
// with the post-transaction value — so replay is idempotent and
// recovery can splice a snapshot anywhere into the record stream.
//
// Key creation and deletion are ordinary logged writes — a key exists
// in the log exactly when a committed SET or CSET made it exist. Two
// mixed-mode paths are, by design, outside the log: the entries
// EnsureKeys/EnsureCounters link already present (bulk loading's
// shortcut: a nil or 0 key no transaction wrote reappears on its first
// write) and plain writes through Privatize'd handles. Publish IS
// logged: its sentinel transactions carry the published values as SET
// ops.

// ErrNotDurable reports a durability operation on a store opened
// without WithDurability.
var ErrNotDurable = errors.New("kv: store has no durability configured")

// pendingOps is one transaction's effect list, attached to the attempt
// via Tx.SetTapData and consumed by the shard's commit tap, which
// stamps it with the commit sequence it assigned. txn links the
// participants of one cross-shard commit (nil for single-shard
// writes): the tap flags their records and the last participant's tap
// appends the commit marker.
type pendingOps struct {
	ops []wal.Op
	seq uint64
	txn *pendingTxn
}

func (p *pendingOps) reset() {
	clear(p.ops)
	p.ops = p.ops[:0]
	p.seq = 0
	p.txn = nil
}

// pendingTxn coordinates the commit taps of one cross-shard
// transaction. The taps of one commit run sequentially (the two-phase
// cross-shard commit fires them shard by shard at the serialization
// point), each under its shard's feed lock: every tap records its
// (shard, seq) participant, and the last one appends the commit
// marker — participant vector included — to the store's marker log.
//
// Allocated per cross-shard durable commit; between the first and
// last tap it sits in the marker feed's open set, which is the
// checkpoint barrier's view of commits whose records are not all
// queued yet (see checkpointShard).
type pendingTxn struct {
	id     uint64        // random transaction id binding records and marker
	need   int           // participant count
	parts  []wal.TxnPart // filled by each tap, in tap order
	marker uint64        // marker-log seq, set by the last tap
	done   chan struct{} // closed by the last tap
}

// newPendingTxn allocates the coordination state of one cross-shard
// durable commit. The random id — not the (shard, seq) pairs — is the
// transaction's durable identity: sequence numbers are reused after a
// recovery rollback, the marker log is never rewritten, and a marker
// from a previous incarnation must never vouch for a later
// transaction's records (see Recover).
func newPendingTxn(need int) *pendingTxn {
	return &pendingTxn{id: rand.Uint64(), need: need, parts: make([]wal.TxnPart, 0, need), done: make(chan struct{})}
}

// txnFeed is the store-level cross-shard marker stream: a wal.Log of
// KindTxnMarker records under the sentinel wal.TxnShard, with its own
// dense sequence. mu also guards the open set of in-flight
// cross-shard commits.
type txnFeed struct {
	mu   sync.Mutex
	seq  uint64
	log  *wal.Log
	open map[*pendingTxn]struct{}
}

// shardFeed is the per-shard commit stream state: the sequence
// counter, the shard's log (nil without durability), and the lock
// under which the tap assigns sequences, appends, and fans out —
// making all three agree on one per-shard order.
type shardFeed struct {
	mu  sync.Mutex
	seq uint64
	log *wal.Log
}

// durState is the store's durability state (nil when disabled).
type durState struct {
	dir     string
	level   wal.Level
	opts    wal.Options // template for per-shard logs
	m       wal.Metrics
	results []wal.RecoverResult // per-shard, consumed by log attach
	xres    wal.RecoverResult   // marker log, consumed by log attach
	info    RecoverInfo

	// xfeed is the cross-shard commit marker stream (txn/ directory).
	xfeed txnFeed

	recovered bool
	attached  bool
	closed    atomic.Bool

	// Degraded-mode policy (degrade.go): mode is fixed at Open; the
	// flag and first error latch on the WAL's OnFail hook; shed counts
	// commits served while the log was down in DegradeShed.
	mode     DegradedMode
	degraded atomic.Bool
	degErr   atomic.Pointer[error]
	shed     atomic.Uint64

	// fs is the filesystem seam threaded into every wal call (nil =
	// the real filesystem); fault-injection tests swap it.
	fs wal.FS

	ckptBusy  []atomic.Bool // per-shard: one checkpoint at a time
	ckpts     atomic.Uint64
	ckptFails atomic.Uint64

	// ckptMu + ckptWG fence rotation-triggered checkpoints against
	// Close: the mutex makes "passed the closed check" and "counted in
	// the WaitGroup" one atomic step, so Close can drain stragglers
	// before it closes the logs. attachLogs holds the mutex from its
	// first OpenLog to its last assignment, so a log that rotates while
	// it is being opened has its checkpoint wait for the whole attach.
	ckptMu sync.Mutex
	ckptWG sync.WaitGroup
}

// RecoverInfo summarizes a store's boot-time recovery, aggregated over
// shards. The JSON names are a stable wire format (STATS WAL emits it).
type RecoverInfo struct {
	Shards          int    `json:"shards"`
	Records         int    `json:"records"`          // log records replayed
	SnapshotRecords int    `json:"snapshot_records"` // snapshot chunks applied
	Snapshots       int    `json:"snapshots"`        // shards restored from a snapshot
	Truncations     int    `json:"truncations"`      // shards with a repaired torn tail
	TruncatedBytes  int64  `json:"truncated_bytes"`
	MaxSeq          uint64 `json:"max_seq"` // highest recovered commit sequence

	// Cross-shard atomicity: markers recovered from the txn log, and
	// what the all-or-nothing rule rolled back — incomplete cross-shard
	// transactions whose marker or sibling records did not survive the
	// crash, unwound by truncating each participant shard at the
	// incomplete record.
	TxnMarkers       int `json:"txn_markers"`
	TxnRollbacks     int `json:"txn_rollbacks"`      // transactions rolled back
	TxnRolledRecords int `json:"txn_rolled_records"` // records dropped by rollbacks
	TxnRolledShards  int `json:"txn_rolled_shards"`  // shards truncated by rollbacks
}

// storeMetaName guards against reopening a directory with a different
// shard count (keys would re-route and recovery would interleave
// shards' states).
const storeMetaName = "store.meta"

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dur.dir, fmt.Sprintf("shard-%04d", i))
}

// txnDir is the cross-shard commit marker log's directory.
func (s *Store) txnDir() string {
	return filepath.Join(s.dur.dir, "txn")
}

// checkMeta verifies (or, first time, records) the directory's shard
// count.
func (s *Store) checkMeta() error {
	path := filepath.Join(s.dur.dir, storeMetaName)
	want := fmt.Sprintf("mtxkv shards=%d\n", len(s.shards))
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(b) != want {
			return fmt.Errorf("kv: durability dir %s was written with %q, reopened with %d shards", s.dur.dir, strings.TrimSpace(string(b)), len(s.shards))
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(s.dur.dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(want), 0o644)
	default:
		return err
	}
}

// Recover replays the durability directory into the store: per shard,
// the newest usable snapshot plus the log tail past it, with torn
// tails truncated (see wal.Recover). Open calls it before attaching
// the logs and the commit taps, so nothing replayed is re-logged;
// calling it again afterwards just returns the boot-time summary.
//
// Cross-shard transactions recover all-or-nothing: a record flagged
// as a cross-shard participant replays only if the transaction's
// commit marker survived in the txn log AND every sibling participant
// record survived on its own shard (or is baked into that shard's
// snapshot — the checkpoint barrier guarantees a snapshot never bakes
// an incomplete transaction). An incomplete transaction is unwound by
// truncating each participant shard at its record; because later
// records on those shards may depend on the unwound writes, the
// truncation takes the shard's whole tail from that point, which can
// render further cross-shard transactions incomplete — the cut
// therefore iterates to a fixed point before anything replays.
func (s *Store) Recover() (RecoverInfo, error) {
	if s.dur == nil {
		return RecoverInfo{}, ErrNotDurable
	}
	if s.dur.recovered {
		return s.dur.info, nil
	}
	if err := s.checkMeta(); err != nil {
		return RecoverInfo{}, err
	}
	info := RecoverInfo{Shards: len(s.shards)}

	// Phase 1 — scan-and-repair every log, buffering the tails instead
	// of applying them: the marker log's surviving markers and each
	// shard's surviving chain past its snapshot. (Tails are bounded by
	// segment rotation + compaction, so buffering is proportional to
	// one checkpoint interval, not history.)
	var markers []wal.Record
	xres, err := wal.RecoverFS(s.dur.fs, s.txnDir(), wal.TxnShard, func(rec wal.Record) error {
		markers = append(markers, rec)
		return nil
	}, &s.dur.m)
	if err != nil {
		return info, fmt.Errorf("kv: recover txn log: %w", err)
	}
	s.dur.xres = xres
	s.dur.xfeed.seq = xres.LastSeq
	info.TxnMarkers = len(markers)

	nshards := len(s.shards)
	s.dur.results = make([]wal.RecoverResult, nshards)
	bufs := make([][]wal.Record, nshards)
	for i := range s.shards {
		res, err := wal.RecoverFS(s.dur.fs, s.shardDir(i), uint32(i), func(rec wal.Record) error {
			bufs[i] = append(bufs[i], rec)
			return nil
		}, &s.dur.m)
		if err != nil {
			return info, fmt.Errorf("kv: recover shard %d: %w", i, err)
		}
		s.dur.results[i] = res
	}

	// Phase 2 — the all-or-nothing cut. byTxn maps each surviving
	// marker's transaction id to its participant vector, and flagged
	// maps each surviving cross record's (shard, seq) to its id; cut[i]
	// is the highest seq shard i keeps. A flagged record above the
	// snapshot with no surviving marker for its id, or whose marker
	// names a sibling not accounted for under the same id within that
	// shard's kept horizon, moves the cut below itself; cuts cascade
	// until stable. Matching by transaction id — never by (shard, seq)
	// alone — is what makes markers from before an earlier rollback
	// harmless: the freed sequence numbers are reused by later commits,
	// and a stale marker must not vouch for them. A participant at or
	// below a shard's snapshot seq is always satisfied: the checkpoint
	// barrier ensures snapshots only bake complete transactions.
	byTxn := make(map[uint64][]wal.TxnPart)
	for _, mrec := range markers {
		if !mrec.Cross {
			continue // a marker without an id can vouch for nothing
		}
		for _, op := range mrec.Ops {
			if op.Kind != wal.KindTxnMarker {
				continue
			}
			parts, derr := wal.DecodeTxnParts(op.Val)
			if derr != nil {
				continue // an undecodable marker commits nothing
			}
			byTxn[mrec.Txn] = parts
		}
	}
	flagged := make(map[wal.TxnPart]uint64)
	for i := range s.shards {
		for _, rec := range bufs[i] {
			if rec.Cross {
				flagged[wal.TxnPart{Shard: uint32(i), Seq: rec.Seq}] = rec.Txn
			}
		}
	}
	cut := make([]uint64, nshards)
	for i := range cut {
		cut[i] = s.dur.results[i].LastSeq
	}
	satisfied := func(p wal.TxnPart, txn uint64) bool {
		if int(p.Shard) >= nshards {
			return false // corrupt marker: the sibling cannot exist
		}
		if p.Seq <= s.dur.results[p.Shard].SnapshotSeq {
			return true
		}
		return p.Seq <= cut[p.Shard] && flagged[p] == txn
	}
	rolled := make(map[wal.TxnPart]bool) // first record cut per incomplete txn
	for changed := true; changed; {
		changed = false
		for i := range s.shards {
			for _, rec := range bufs[i] {
				if !rec.Cross || rec.Seq > cut[i] {
					continue
				}
				parts, ok := byTxn[rec.Txn]
				complete := ok
				for _, p := range parts {
					if !satisfied(p, rec.Txn) {
						complete = false
						break
					}
				}
				if !complete {
					cut[i] = rec.Seq - 1
					rolled[wal.TxnPart{Shard: uint32(i), Seq: rec.Seq}] = true
					changed = true
					break // later records on this shard are gone too
				}
			}
		}
	}
	info.TxnRollbacks = len(rolled)

	// Phase 3 — replay. Untouched shards apply their buffered snapshot
	// chunks + tail directly; cut shards re-run recovery with the cut
	// as a hard ceiling, which also repairs the files on disk so the
	// rolled-back records never resurface on the next boot.
	for i, sh := range s.shards {
		res := s.dur.results[i]
		if cut[i] < res.LastSeq {
			info.TxnRolledShards++
			info.TxnRolledRecords += int(res.LastSeq - cut[i])
			bufs[i] = bufs[i][:0]
			res, err = wal.RecoverLimitedFS(s.dur.fs, s.shardDir(i), uint32(i), cut[i], func(rec wal.Record) error {
				bufs[i] = append(bufs[i], rec)
				return nil
			}, &s.dur.m)
			if err != nil {
				return info, fmt.Errorf("kv: recover shard %d (cross-shard rollback to seq %d): %w", i, cut[i], err)
			}
			s.dur.results[i] = res
		}
		if err := replay(sh, bufs[i]); err != nil {
			return info, fmt.Errorf("kv: recover shard %d: %w", i, err)
		}
		bufs[i] = nil
		sh.feed.seq = res.LastSeq
		info.Records += res.Records
		info.SnapshotRecords += res.SnapshotRecords
		if res.SnapshotSeq != 0 {
			info.Snapshots++
		}
		if res.Truncated {
			info.Truncations++
			info.TruncatedBytes += res.TruncatedBytes
		}
		if res.LastSeq > info.MaxSeq {
			info.MaxSeq = res.LastSeq
		}
	}
	s.dur.recovered = true
	s.dur.info = info
	return info, nil
}

// replay installs in sh the state recs — snapshot chunks, then the log
// tail, in order — leave behind: the records fold into each key's last
// write, and the survivors are linked present in one batch per kind.
// Recovery is single-threaded and runs before the store serves, so a
// plain store into a linked entry is the whole write.
func replay(sh *shard, recs []wal.Record) error {
	final := make(map[string]wal.Op, len(recs)) // key → its last write, absolute
	for _, rec := range recs {
		for _, op := range rec.Ops {
			switch op.Kind {
			case wal.KindSet, wal.KindCounterSet:
				final[op.Key] = op
			case wal.KindCounterAdd:
				if prev := final[op.Key]; prev.Kind == wal.KindCounterSet {
					op.N += prev.N
				}
				op.Kind = wal.KindCounterSet
				final[op.Key] = op
			case wal.KindDelete:
				delete(final, op.Key)
			default:
				return fmt.Errorf("kv: replay: unknown op kind %d", op.Kind)
			}
		}
	}
	var bs, cs []string
	for k, op := range final {
		if op.Kind == wal.KindSet {
			bs = append(bs, k)
		} else {
			cs = append(cs, k)
		}
	}
	sh.link(bs, false, true)
	sh.link(cs, true, true)
	for k, op := range final {
		if e := sh.lookup(k, fnv1a(k)); op.Kind == wal.KindSet {
			e.b.Store(copyVal(op.Val))
		} else {
			e.c.Store(op.N)
		}
	}
	return nil
}

// attachLogs opens every shard's log (continuing each repaired tail)
// plus the cross-shard marker log, and installs the commit taps.
// Open-time only.
func (s *Store) attachLogs() error {
	// A tail already past the segment size rotates inside OpenLog, and
	// the hook's checkpoint reads feed.log and attached: hold it at
	// checkpointShardAsync's door until both are assigned.
	s.dur.ckptMu.Lock()
	defer s.dur.ckptMu.Unlock()
	xo := s.dur.opts
	xo.Metrics = &s.dur.m
	xlog, err := wal.OpenLog(s.txnDir(), wal.TxnShard, s.dur.xres, xo)
	if err != nil {
		return err
	}
	s.dur.xfeed.log = xlog
	s.dur.xfeed.open = make(map[*pendingTxn]struct{})
	for i, sh := range s.shards {
		i := i
		o := s.dur.opts
		o.Metrics = &s.dur.m
		o.OnRotate = func(uint64) { go s.checkpointShardAsync(i) }
		log, err := wal.OpenLog(s.shardDir(i), uint32(i), s.dur.results[i], o)
		if err != nil {
			s.dur.closed.Store(true) // held checkpoints find the store shut
			for _, prev := range s.shards[:i] {
				prev.feed.log.Close()
			}
			xlog.Close()
			return err
		}
		sh.feed.log = log
	}
	s.dur.attached = true
	s.dur.results = nil
	s.tapOnce.Do(s.installTaps)
	return nil
}

// installTaps installs the per-shard commit taps (idempotent via
// tapOnce at the call sites). The tap runs at the committing
// transaction's serialization point with commit locks held: it only
// assigns the sequence, buffers the record (Log.Append does no I/O)
// and fans out to subscribers — the disk never gates a commit.
//
// A cross-shard commit's taps additionally thread its pendingTxn: the
// record is flagged, the participant (shard, seq) recorded, and the
// last participant's tap appends the commit marker. Registration in
// the marker feed's open set happens inside the shard feed lock, so
// a checkpoint's marker transaction on any participant shard strictly
// orders with it (the checkpoint barrier's correctness hinges on
// that: any cross-shard commit sequenced below a snapshot is either
// fully queued or in the open set when the barrier looks).
func (s *Store) installTaps() {
	for _, sh := range s.shards {
		sh := sh
		f := sh.feed
		sh.stm.SetCommitTap(func(data any) {
			p := data.(*pendingOps)
			f.mu.Lock()
			f.seq++
			p.seq = f.seq
			var flags uint8
			var txnID uint64
			if p.txn != nil {
				flags, txnID = wal.FlagCross, p.txn.id
			}
			if f.log != nil {
				// Errors are sticky inside the Log and surface on
				// WaitDurable/Sync; the commit itself must not fail here —
				// it is already past its serialization point. In
				// shed-durability mode each commit the dead log refused is
				// counted: served, not durable, loudly.
				if err := f.log.AppendFlags(p.seq, flags, txnID, p.ops); err != nil && s.dur.mode == DegradeShed {
					s.dur.shed.Add(1)
				}
			}
			if p.txn != nil {
				s.xtap(p.txn, uint32(sh.index), p.seq)
			}
			if subs := s.subs.Load(); subs != nil && len(p.ops) > 0 {
				notifySubscribers(s, *subs, sh.index, p)
			}
			f.mu.Unlock()
		})
	}
	s.tapOn.Store(true)
}

// xtap records one participant of a cross-shard commit and, on the
// last participant, appends the commit marker. Runs under the
// participant shard's feed lock; takes the marker feed lock inside it
// (that order — shard feed, then marker feed — holds everywhere).
func (s *Store) xtap(t *pendingTxn, shard uint32, seq uint64) {
	x := &s.dur.xfeed
	x.mu.Lock()
	if len(t.parts) == 0 {
		x.open[t] = struct{}{}
	}
	t.parts = append(t.parts, wal.TxnPart{Shard: shard, Seq: seq})
	if len(t.parts) == t.need {
		x.seq++
		t.marker = x.seq
		if x.log != nil {
			// The marker is itself cross-flagged, carrying the same
			// transaction id its participants do.
			_ = x.log.AppendFlags(t.marker, wal.FlagCross, t.id, []wal.Op{{Kind: wal.KindTxnMarker, Val: wal.AppendTxnParts(nil, t.parts)}})
		}
		delete(x.open, t)
		close(t.done)
	}
	x.mu.Unlock()
}

// tapWrites reports whether transaction bodies should record their
// effects (durability attached, or at least one subscriber ever
// registered). One atomic load on the write path when disabled.
func (s *Store) tapWrites() bool { return s.tapOn.Load() }

// fsyncLevel reports whether acknowledged writes wait for fsync.
func (s *Store) fsyncLevel() bool { return s.dur != nil && s.dur.level == wal.Fsync }

// waitDurable blocks until p's record is fsynced, at the Fsync level.
// Called after the transaction has fully committed and released its
// locks; p.seq is 0 when the attempt logged nothing.
func (s *Store) waitDurable(sh *shard, p *pendingOps) error {
	if p.seq == 0 || !s.fsyncLevel() {
		return nil
	}
	if err := sh.feed.log.WaitDurable(p.seq); err != nil {
		return s.degradeWriteErr(err)
	}
	return nil
}

// waitTxnDurable blocks until a cross-shard commit's marker is
// fsynced, at the Fsync level. The caller has already waited for the
// participant records; marker + participants durable together is what
// makes the acknowledgment an atomic cross-shard guarantee.
func (s *Store) waitTxnDurable(t *pendingTxn) error {
	if t == nil || t.marker == 0 || !s.fsyncLevel() {
		return nil
	}
	if err := s.dur.xfeed.log.WaitDurable(t.marker); err != nil {
		return s.degradeWriteErr(err)
	}
	return nil
}

// Checkpoint snapshots every shard and compacts its log. Each shard's
// snapshot is exact at a commit sequence: it is taken by a marker
// transaction that reads the shard's whole table (and its keyspace and
// publication versions, so concurrent key creation or publication
// conflicts it) and goes through the commit tap — the sequence the tap
// assigns the (empty) marker record is precisely the state the
// transaction read. The log is then fsynced through that sequence
// before the snapshot is installed, so a surviving snapshot never
// outruns the surviving log.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return ErrNotDurable
	}
	var first error
	for i := range s.shards {
		if err := s.checkpointShard(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkpointShardAsync is the rotation hook: best-effort, one at a
// time per shard, failures counted rather than returned.
func (s *Store) checkpointShardAsync(i int) {
	d := s.dur
	d.ckptMu.Lock()
	if d.closed.Load() {
		d.ckptMu.Unlock()
		return
	}
	d.ckptWG.Add(1)
	d.ckptMu.Unlock()
	defer d.ckptWG.Done()
	if err := s.checkpointShard(i); err != nil {
		d.ckptFails.Add(1)
	}
}

func (s *Store) checkpointShard(i int) error {
	if !s.dur.ckptBusy[i].CompareAndSwap(false, true) {
		return nil // already in progress
	}
	defer s.dur.ckptBusy[i].Store(false)
	sh := s.shards[i]
	var (
		pend pendingOps
		ops  []wal.Op
	)
	err := sh.stm.Atomically(func(tx *stm.Tx) error {
		ops = ops[:0]
		pend.reset()
		// A link touches the keyspace version and a publication bumps
		// the sentinel; reading both makes either conflict this snapshot
		// instead of slipping past it.
		_ = tx.Read(sh.kvers)
		_ = tx.Read(sh.pub)
		for e := range sh.each {
			_, b, n, st := e.read(tx)
			if st != live {
				continue
			}
			if e.isCounter() {
				ops = append(ops, wal.Op{Kind: wal.KindCounterSet, Key: e.key, N: n})
			} else {
				ops = append(ops, wal.Op{Kind: wal.KindSet, Key: e.key, Val: b})
			}
		}
		tx.SetTapData(&pend) // the marker: its tap seq is the snapshot's position
		return nil
	})
	if err != nil {
		return fmt.Errorf("kv: checkpoint shard %d: %w", i, err)
	}
	// Cross-shard barrier: recovery trusts that a snapshot never bakes
	// an incomplete cross-shard transaction, so before this snapshot
	// installs, every cross-shard commit sequenced below it must be
	// fully queued on every participant shard AND durable there. Any
	// such commit either finished its taps before our marker
	// transaction's tap (fully queued) or is in the open set right
	// after it (the tap registers under the shard feed lock) — wait
	// those out, then fsync every log so all their records, and the
	// markers proving them complete, are on disk before the snapshot.
	if err := s.crossShardBarrier(); err != nil {
		return fmt.Errorf("kv: checkpoint shard %d: %w", i, err)
	}
	if err := sh.feed.log.Sync(); err != nil {
		return fmt.Errorf("kv: checkpoint shard %d: %w", i, err)
	}
	if err := wal.WriteSnapshotFS(s.dur.fs, s.shardDir(i), uint32(i), pend.seq, ops); err != nil {
		return fmt.Errorf("kv: checkpoint shard %d: %w", i, err)
	}
	s.dur.ckpts.Add(1)
	// Keep the previous snapshot as a fallback against bit rot in the
	// new one; prune segments both still cover.
	if err := wal.CompactFS(s.dur.fs, s.shardDir(i), 2); err != nil {
		return fmt.Errorf("kv: compact shard %d: %w", i, err)
	}
	return nil
}

// crossShardBarrier waits out every in-flight cross-shard commit and
// then fsyncs every shard log plus the marker log. A store that never
// committed cross-shard skips it entirely (the common path: one fsync
// per checkpoint, not one per shard). The marker log is never
// compacted — markers are ~30 bytes per cross-shard commit and stale
// ones (naming rolled-back or snapshot-covered records) are inert at
// recovery, so correctness never depends on pruning them.
func (s *Store) crossShardBarrier() error {
	x := &s.dur.xfeed
	x.mu.Lock()
	if x.seq == 0 && len(x.open) == 0 {
		x.mu.Unlock()
		return nil
	}
	waits := make([]chan struct{}, 0, len(x.open))
	for t := range x.open {
		waits = append(waits, t.done)
	}
	x.mu.Unlock()
	for _, ch := range waits {
		<-ch
	}
	for j, other := range s.shards {
		if err := other.feed.log.Sync(); err != nil {
			return fmt.Errorf("cross-shard barrier: sync shard %d: %w", j, err)
		}
	}
	if err := x.log.Sync(); err != nil {
		return fmt.Errorf("cross-shard barrier: sync txn log: %w", err)
	}
	return nil
}

// Close flushes and closes every shard's log (a Fsync/Batch-level
// close fsyncs the tail). The store itself remains usable for
// non-durable operation but further writes are no longer logged;
// Close is for orderly shutdown. Safe to call more than once.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	if !s.dur.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Drain in-flight rotation checkpoints before closing the logs, so
	// no background goroutine touches the directory after Close returns.
	s.dur.ckptMu.Lock()
	s.dur.ckptMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	s.dur.ckptWG.Wait()
	var first error
	for _, sh := range s.shards {
		if sh.feed.log == nil {
			continue
		}
		if err := sh.feed.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.dur.xfeed.log != nil {
		if err := s.dur.xfeed.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Durable reports whether the store was opened with WithDurability.
func (s *Store) Durable() bool { return s.dur != nil }

// WALStats is the durability and changefeed observability snapshot.
// The JSON names are a stable wire format (STATS WAL, /debug/vars).
type WALStats struct {
	Level             string       `json:"level"` // "off" without durability
	Appends           uint64       `json:"appends"`
	Batches           uint64       `json:"batches"`
	Fsyncs            uint64       `json:"fsyncs"`
	Bytes             uint64       `json:"bytes"`
	Rotations         uint64       `json:"rotations"`
	Truncations       uint64       `json:"truncations"`
	TruncatedBytes    uint64       `json:"truncated_bytes"`
	Checkpoints       uint64       `json:"checkpoints"`
	CheckpointFails   uint64       `json:"checkpoint_fails"`
	TxnMarkers        uint64       `json:"txn_markers"` // cross-shard commit markers logged (ever)
	AppendNs          obs.Snapshot `json:"append_ns"`
	FsyncNs           obs.Snapshot `json:"fsync_ns"`
	Subscribers       int          `json:"subscribers"`
	ChangefeedDropped uint64       `json:"changefeed_dropped"`
	Recover           RecoverInfo  `json:"recover"`
	Err               string       `json:"err,omitempty"` // first sticky log error

	// Degraded-mode policy state (degrade.go).
	Degraded     bool   `json:"degraded"`
	DegradedMode string `json:"degraded_mode,omitempty"`
	ShedWrites   uint64 `json:"shed_writes"` // commits served without durability (DegradeShed)
}

// WALStats snapshots the durability metrics; with durability off only
// the changefeed fields are live.
func (s *Store) WALStats() WALStats {
	st := WALStats{Level: "off", ChangefeedDropped: s.feedDropped.Load()}
	if subs := s.subs.Load(); subs != nil {
		st.Subscribers = len(*subs)
	}
	if s.dur == nil {
		return st
	}
	m := s.dur.m.Snapshot()
	st.Level = s.dur.level.String()
	st.Appends, st.Batches, st.Fsyncs, st.Bytes = m.Appends, m.Batches, m.Fsyncs, m.Bytes
	st.Rotations, st.Truncations, st.TruncatedBytes = m.Rotations, m.Truncations, m.TruncatedBytes
	st.Checkpoints, st.CheckpointFails = s.dur.ckpts.Load(), s.dur.ckptFails.Load()
	s.dur.xfeed.mu.Lock()
	st.TxnMarkers = s.dur.xfeed.seq
	s.dur.xfeed.mu.Unlock()
	st.AppendNs, st.FsyncNs = m.AppendNs, m.FsyncNs
	st.Recover = s.dur.info
	st.DegradedMode = s.dur.mode.String()
	st.ShedWrites = s.dur.shed.Load()
	if deg, derr := s.Degraded(); deg {
		st.Degraded = true
		if derr != nil {
			st.Err = derr.Error()
		}
	}
	if st.Err == "" {
		for _, sh := range s.shards {
			if sh.feed.log != nil {
				if err := sh.feed.log.Err(); err != nil {
					st.Err = err.Error()
					break
				}
			}
		}
	}
	return st
}

// WithDurability opens the store over a write-ahead log rooted at dir
// (one subdirectory per shard), recovering existing state on Open and
// logging every committed write thereafter at the given level. Stores
// with durability must be created with Open (New panics on error).
func WithDurability(dir string, level wal.Level) Option {
	return func(c *config) {
		c.durDir = dir
		c.durLevel = level
	}
}

// WithWALSegmentBytes sets the log segment rotation threshold
// (default 64 MiB; each rotation triggers a background checkpoint).
func WithWALSegmentBytes(n int64) Option {
	return func(c *config) { c.segmentBytes = n }
}

// WithWALFlushInterval sets the Batch level's fsync cadence
// (default 20ms).
func WithWALFlushInterval(d time.Duration) Option {
	return func(c *config) { c.flushEvery = d }
}

// WithWALFS threads a filesystem seam under the store's WAL — every
// segment, snapshot and recovery file operation goes through it. The
// fault-injection tests pass a fault.DiskFS; production code never
// needs this (nil means the real filesystem).
func WithWALFS(fsys wal.FS) Option {
	return func(c *config) { c.walFS = fsys }
}
