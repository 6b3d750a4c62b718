package kv

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"modtx/internal/wal"
)

// noSyncFS is the real filesystem with every fsync skipped: the
// differential test compares states, not what survives a crash, and
// runs several hundred checkpoints.
type noSyncFS struct{ wal.FS }

type noSyncFile struct{ wal.File }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}
func (noSyncFS) SyncDir(string) error { return nil }
func (noSyncFile) Sync() error        { return nil }

// The fold cases the generator must hit, each at least once.
const (
	caseSetOverSet = iota
	caseSetAfterDelete
	caseCSetOverCounter
	caseCSetAfterDelete
	caseAddOverCounter
	caseAddAfterDelete
	caseDeleteBytes
	caseDeleteCounter
	caseRecreateOtherKind
	caseCrossShard
	caseSetThenDelete // two ops on one key in one record
	caseTwoAdds
	caseDeleteThenSet
	numCases
)

// diffRecords generates n records over nkeys keys from a fixed seed,
// each one to three keys with one op or, now and then, two on a key
// (set then delete, two counter adds, delete then set), as the store
// logs them: a write of one kind over a live key of the other kind
// never happens (a key changes kind only through a delete, and not
// within the transaction that deletes it), but a
// counter add may arrive relative (KindCounterAdd), as the record
// format allows. It also
// returns, per prefix, the state a correct fold reaches (in storeState's
// form) and counts the cases hit.
func diffRecords(n, nkeys int, shardOf func(string) int) (recs []wal.Record, states []map[string]string, hits [numCases]int) {
	rng := rand.New(rand.NewPCG(28, 1998))
	type kstate struct {
		kind    wal.Kind // 0 never written, KindDelete deleted, else the live kind
		was     wal.Kind // the kind a deleted key had
		val     string
		counter int64
	}
	keys := make([]kstate, nkeys)
	state := map[string]string{}
	states = append(states, map[string]string{})
	for seq := 1; seq <= n; seq++ {
		var ops []wal.Op
		used := map[int]bool{}
		shards := map[int]bool{}
		for range 1 + rng.IntN(3) {
			i := rng.IntN(nkeys)
			if used[i] {
				continue
			}
			used[i] = true
			k, key := &keys[i], fmt.Sprintf("key-%02d", i)
			shards[shardOf(key)] = true
			live := k.kind == wal.KindSet || k.kind == wal.KindCounterSet
			var op wal.Op
			switch r := rng.IntN(10); {
			case rng.IntN(6) == 0: // two ops on the key
				pair := caseTwoAdds
				switch {
				case k.kind == wal.KindSet && r%2 == 0:
					pair = caseDeleteThenSet
				case k.kind == wal.KindSet || (!live && r%2 == 1):
					pair = caseSetThenDelete
				}
				hits[pair]++
				switch pair {
				case caseDeleteThenSet:
					k.kind, k.val, k.counter = wal.KindSet, fmt.Sprintf("v%d", seq), 0
					ops = append(ops, wal.Op{Kind: wal.KindDelete, Key: key})
					op = wal.Op{Kind: wal.KindSet, Key: key, Val: []byte(k.val)}
				case caseSetThenDelete:
					k.was, k.kind = wal.KindSet, wal.KindDelete
					ops = append(ops, wal.Op{Kind: wal.KindSet, Key: key, Val: []byte(fmt.Sprintf("v%d", seq))})
					op = wal.Op{Kind: wal.KindDelete, Key: key}
				default:
					if !live {
						k.counter = 0
					}
					d, e := int64(rng.IntN(19)-9), int64(rng.IntN(19)-9)
					k.kind, k.val, k.counter = wal.KindCounterSet, "", k.counter+d+e
					ops = append(ops, wal.Op{Kind: wal.KindCounterAdd, Key: key, N: d})
					op = wal.Op{Kind: wal.KindCounterAdd, Key: key, N: e}
				}
			case live && r < 3:
				op = wal.Op{Kind: wal.KindDelete, Key: key}
				hits[map[bool]int{true: caseDeleteCounter, false: caseDeleteBytes}[k.kind == wal.KindCounterSet]]++
				k.was, k.kind = k.kind, wal.KindDelete
			case k.kind == wal.KindSet || (!live && r < 6):
				if k.kind == wal.KindDelete && k.was == wal.KindCounterSet {
					hits[caseRecreateOtherKind]++
				}
				hits[map[bool]int{true: caseSetOverSet, false: caseSetAfterDelete}[live]]++
				k.kind, k.val, k.counter = wal.KindSet, fmt.Sprintf("v%d", seq), 0
				op = wal.Op{Kind: wal.KindSet, Key: key, Val: []byte(k.val)}
			default: // a live counter, or a counter made where none is
				if k.kind == wal.KindDelete && k.was == wal.KindSet {
					hits[caseRecreateOtherKind]++
				}
				if !live {
					k.counter = 0
				}
				d := int64(rng.IntN(19) - 9)
				if r%2 == 0 {
					hits[map[bool]int{true: caseAddOverCounter, false: caseAddAfterDelete}[live]]++
					k.counter += d
					op = wal.Op{Kind: wal.KindCounterAdd, Key: key, N: d}
				} else {
					hits[map[bool]int{true: caseCSetOverCounter, false: caseCSetAfterDelete}[live]]++
					k.counter = d * 100
					op = wal.Op{Kind: wal.KindCounterSet, Key: key, N: k.counter}
				}
				k.kind, k.val = wal.KindCounterSet, ""
			}
			ops = append(ops, op)
			switch k.kind {
			case wal.KindSet:
				state[key] = "bytes " + k.val
			case wal.KindCounterSet:
				state[key] = fmt.Sprintf("counter %d", k.counter)
			default:
				delete(state, key)
			}
		}
		if len(shards) > 1 {
			hits[caseCrossShard]++
		}
		recs = append(recs, wal.Record{Seq: uint64(seq), Ops: ops})
		states = append(states, copyState(state))
	}
	return recs, states, hits
}

func copyState(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// cloneRecord deep-copies rec: recovery and the fold make counter adds
// absolute in place, and each path must see the records as logged.
func cloneRecord(rec wal.Record) wal.Record {
	ops := make([]wal.Op, len(rec.Ops))
	for i, op := range rec.Ops {
		op.Val = copyVal(op.Val)
		ops[i] = op
	}
	return wal.Record{Seq: rec.Seq, Ops: ops}
}

// TestEveryPathAgrees is a differential test of the five ways log
// records become state: Recover, a syncing replica, a live replica (one
// Update a record), a checkpoint and then Recover, and a changefeed
// folded in LSN order. For every prefix of a fixed-seed record stream
// that hits every fold case, each must hold the same keys, kinds and
// values as the generator's model.
func TestEveryPathAgrees(t *testing.T) {
	const n, nkeys = 240, 32
	probe := New(WithShards(4))
	recs, want, hits := diffRecords(n, nkeys, probe.ShardOf)
	for c, h := range hits {
		if h == 0 {
			t.Fatalf("fold case %d never generated (hits %v)", c, hits)
		}
	}

	// The segment the log writes for the whole stream; prefix m is its
	// header plus the first m records.
	tmpl := t.TempDir()
	lg, _, err := wal.Open(tmpl, wal.Options{Level: wal.None, FS: noSyncFS{wal.OSFS}}, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := lg.Append(rec.Seq, rec.Ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(tmpl, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, have %v", segs)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, n+1) // ends[m]: the segment's length through record m
	body := 0
	if _, err := lg.Scan(1, func(seq uint64, raw []byte) error {
		body += len(raw)
		ends[seq] = body
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	hdr := len(seg) - body
	name := filepath.Base(segs[0])

	fsys := noSyncFS{wal.OSFS}
	open := func(dir string) *Store {
		t.Helper()
		s, err := Open(WithShards(4), WithDurability(dir, wal.None), WithWALFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	recoverDir, ckptDir := t.TempDir(), t.TempDir()
	writePrefix := func(dir string, m int) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), seg[:hdr+ends[m]], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	live, err := NewReplica(WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Store().Close()
	sub := live.Store().SubscribeBuffer(context.Background(), "", 4*n)
	defer sub.Close()
	feed := map[string]string{}

	m := 0
	defer func() { // a path that panics fails at its prefix
		if r := recover(); r != nil {
			t.Fatalf("n=%d: panic: %v", m, r)
		}
	}()
	for m = 1; m <= n; m++ {
		// 1. Recover from the log alone.
		writePrefix(recoverDir, m)
		s := open(recoverDir)
		got := map[string]map[string]string{"Recover": storeState(s)}
		s.Close()

		// 2. A replica that syncs to m.
		syncing, err := NewReplica(WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		syncing.SetTarget(uint64(m))
		for _, rec := range recs[:m] {
			if err := syncing.ApplyRecords([]wal.Record{cloneRecord(rec)}); err != nil {
				t.Fatalf("n=%d: syncing replica: %v", m, err)
			}
		}
		if syncing.Syncing() {
			t.Fatalf("n=%d: the replica still syncs at its target", m)
		}
		got["syncing replica"] = storeState(syncing.Store())

		// 3. A live replica, one record at a time.
		if err := live.ApplyRecords([]wal.Record{cloneRecord(recs[m-1])}); err != nil {
			t.Fatalf("n=%d: live replica: %v", m, err)
		}
		got["live replica"] = storeState(live.Store())

		// 4. A checkpoint at m, on top of the one at m-1, then Recover.
		writePrefix(ckptDir, m)
		s = open(ckptDir)
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("n=%d: checkpoint: %v", m, err)
		}
		s.Close()
		if _, err := os.Stat(filepath.Join(ckptDir, fmt.Sprintf("snap-%020d.snap", m))); err != nil {
			t.Fatalf("n=%d: no snapshot at the prefix: %v", m, err)
		}
		s = open(ckptDir)
		got["checkpoint+Recover"] = storeState(s)
		s.Close()

		// 5. The live replica's changefeed, folded in LSN order.
		for drained := false; !drained; {
			select {
			case ev := <-sub.Events():
				switch ev.Kind {
				case wal.KindSet:
					feed[ev.Key] = "bytes " + string(ev.Val)
				case wal.KindCounterSet:
					feed[ev.Key] = fmt.Sprintf("counter %d", ev.N)
				case wal.KindDelete:
					delete(feed, ev.Key)
				default:
					t.Fatalf("n=%d: changefeed event of kind %v", m, ev.Kind)
				}
			default:
				drained = true
			}
		}
		got["changefeed"] = copyState(feed)

		for _, path := range []string{"Recover", "syncing replica", "live replica", "checkpoint+Recover", "changefeed"} {
			sameState(t, fmt.Sprintf("n=%d: %s", m, path), got[path], want[m])
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("the changefeed dropped %d events", sub.Dropped())
	}
}
