package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// openDurable opens a small durable store over dir with deterministic
// settings (2 shards keep the directories small, fsync level makes
// every acknowledged write durable without sleeping).
func openDurable(t *testing.T, dir string, level wal.Level, extra ...Option) *Store {
	t.Helper()
	opts := append([]Option{
		WithShards(2),
		WithDurability(dir, level),
	}, extra...)
	s, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Fsync)

	if err := s.Set("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("hits", 41); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("hits", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("doomed", []byte("bye")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// A cross-shard transaction, to cover the Txn emission paths.
	if err := s.Update([]string{"greeting", "hits", "txn-key"}, func(tx *Txn) error {
		tx.Set("txn-key", []byte("txn-val"))
		tx.Add("hits", 8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, wal.Fsync)
	defer r.Close()
	if v, ok, _ := r.Get("greeting"); !ok || string(v) != "hello" {
		t.Fatalf("greeting = %q, %v", v, ok)
	}
	if n, ok, _ := r.CounterGet("hits"); !ok || n != 50 {
		t.Fatalf("hits = %d, %v", n, ok)
	}
	if v, ok, _ := r.Get("txn-key"); !ok || string(v) != "txn-val" {
		t.Fatalf("txn-key = %q, %v", v, ok)
	}
	if _, ok, _ := r.Get("doomed"); ok {
		t.Fatal("deleted key survived recovery")
	}
	info := r.WALStats().Recover
	if info.Records == 0 {
		t.Fatalf("recovery replayed no records: %+v", info)
	}
}

func TestDurablePublishLogged(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Fsync)
	if err := s.Publish(map[string][]byte{"pub1": []byte("v1"), "pub2": []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, wal.Fsync)
	defer r.Close()
	for k, want := range map[string]string{"pub1": "v1", "pub2": "v2"} {
		if v, ok, _ := r.Get(k); !ok || string(v) != want {
			t.Fatalf("%s = %q, %v (want %q)", k, v, ok, want)
		}
	}
}

func TestDurableDeleteRecreateChangesKind(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Fsync)
	if err := s.Set("k", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("k", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, wal.Fsync)
	defer r.Close()
	if n, ok, _ := r.CounterGet("k"); !ok || n != 7 {
		t.Fatalf("k = %d, %v after kind change", n, ok)
	}
}

func TestCheckpointAndCompactReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations (and their background checkpoints).
	s := openDurable(t, dir, wal.Fsync, WithWALSegmentBytes(512))
	for i := 0; i < 200; i++ {
		if err := s.Set(fmt.Sprintf("key-%03d", i), []byte(strings.Repeat("x", 32))); err != nil {
			t.Fatal(err)
		}
	}
	// An explicit checkpoint on top of whatever the rotations started.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.WALStats()
	if st.Rotations == 0 {
		t.Fatalf("expected rotations with 512-byte segments: %+v", st)
	}
	if st.Checkpoints == 0 {
		t.Fatalf("expected checkpoints: %+v", st)
	}
	// More writes after the checkpoint, to exercise snapshot + tail.
	for i := 0; i < 50; i++ {
		if err := s.Set(fmt.Sprintf("key-%03d", i), []byte("updated")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, wal.Fsync, WithWALSegmentBytes(512))
	defer r.Close()
	for i := 0; i < 200; i++ {
		want := strings.Repeat("x", 32)
		if i < 50 {
			want = "updated"
		}
		if v, ok, _ := r.Get(fmt.Sprintf("key-%03d", i)); !ok || string(v) != want {
			t.Fatalf("key-%03d = %q, %v", i, v, ok)
		}
	}
	if r.WALStats().Recover.Snapshots == 0 {
		t.Fatalf("expected snapshot-based recovery: %+v", r.WALStats().Recover)
	}
}

// TestCheckpointBesideWriter reproduces ROADMAP 0(a) through the public
// API: a goroutine loops Checkpoint while another Sets every key once,
// then the store is closed and reopened. Every acknowledged Set must be
// there, on every engine.
func TestCheckpointBesideWriter(t *testing.T) {
	n := 1 << 16
	if raceEnabled {
		n = 1 << 13
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			opts := []Option{WithShards(64), WithEngine(eng), WithDurability(t.TempDir(), wal.None)}
			s, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			s.EnsureKeys(keys...)
			stop, ckpts := make(chan struct{}), make(chan int)
			go func() {
				n := 0
				for {
					select {
					case <-stop:
						ckpts <- n
						return
					default:
					}
					if err := s.Checkpoint(); err != nil {
						t.Error(err)
					}
					n++
				}
			}()
			for _, k := range keys {
				if err := s.Set(k, []byte("v")); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			t.Logf("%d checkpoints beside %d Sets", <-ckpts, n)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			lost := 0
			for _, k := range keys {
				if v, ok := r.FastGet(k); !ok || string(v) != "v" {
					lost++
				}
			}
			if lost > 0 {
				t.Errorf("%d of %d acknowledged Sets lost across the reopen", lost, n)
			}
		})
	}
}

// TestDurableShardCountMismatch: records route by key, so a directory
// closed at one shard count reopens at any other with every key — here
// written at 16 shards, reopened at 8 and then at 64.
func TestDurableShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	open := func(shards int) *Store {
		t.Helper()
		s, err := Open(WithShards(shards), WithDurability(dir, wal.None))
		if err != nil {
			t.Fatalf("open at %d shards: %v", shards, err)
		}
		return s
	}
	check := func(s *Store, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, ok, _ := s.Get(fmt.Sprintf("k%03d", i)); !ok || string(v) != fmt.Sprint(i) {
				t.Fatalf("at %d shards: k%03d = %q, %v", s.NumShards(), i, v, ok)
			}
			if c, ok, _ := s.CounterGet(fmt.Sprintf("c%03d", i)); !ok || c != int64(i) {
				t.Fatalf("at %d shards: c%03d = %d, %v", s.NumShards(), i, c, ok)
			}
		}
	}
	write := func(s *Store, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CounterAdd(fmt.Sprintf("c%03d", i), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := open(16)
	write(s, 0, 100)
	if err := s.Checkpoint(); err != nil { // a snapshot written at 16 shards, too
		t.Fatal(err)
	}
	write(s, 100, 150)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(8)
	check(s, 150)
	write(s, 150, 200)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(64)
	defer s.Close()
	check(s, 200)
}

func TestDurableBatchLevelFlushes(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Batch)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Close fsyncs the tail at every level, so the write must survive.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, wal.Batch)
	defer r.Close()
	if v, ok, _ := r.Get("k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("k = %q, %v", v, ok)
	}
}

func TestDurableNoneLevelSurvivesClose(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.None)
	if _, err := s.CounterAdd("n", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, wal.None)
	defer r.Close()
	if n, ok, _ := r.CounterGet("n"); !ok || n != 5 {
		t.Fatalf("n = %d, %v", n, ok)
	}
}

func TestWALStatsShape(t *testing.T) {
	s := New(WithShards(2))
	if st := s.WALStats(); st.Level != "off" {
		t.Fatalf("non-durable level = %q", st.Level)
	}
	if s.Durable() {
		t.Fatal("Durable() on a plain store")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on a plain store: %v", err)
	}
	if _, err := s.ReplLog(); err != ErrNotDurable {
		t.Fatalf("ReplLog on a plain store: %v", err)
	}
	if err := s.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("Checkpoint on a plain store: %v", err)
	}

	dir := t.TempDir()
	d := openDurable(t, dir, wal.Fsync)
	defer d.Close()
	if err := d.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := d.WALStats()
	if st.Level != "fsync" || st.Appends == 0 || st.Fsyncs == 0 || st.Bytes == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.Err != "" {
		t.Fatalf("unexpected sticky error: %s", st.Err)
	}
}

// TestDurableDirLayout pins the on-disk layout: one log, its segments
// and snapshots side by side in the directory, no subdirectories — and
// a directory in the per-shard layout of earlier versions is refused
// rather than read as empty.
func TestDurableDirLayout(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Fsync)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, snaps int
	for _, ent := range ents {
		switch {
		case ent.IsDir():
			t.Errorf("subdirectory %s", ent.Name())
		case strings.HasPrefix(ent.Name(), "seg-") && strings.HasSuffix(ent.Name(), ".wal"):
			segs++
		case strings.HasPrefix(ent.Name(), "snap-") && strings.HasSuffix(ent.Name(), ".snap"):
			snaps++
		default:
			t.Errorf("unexpected file %s", ent.Name())
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("%d segments and %d snapshots, want one of each", segs, snaps)
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "store.meta"), []byte("mtxkv shards=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithDurability(old, wal.Fsync)); err == nil {
		t.Fatal("a per-shard directory opened as an empty store")
	}
}

// TestDurableAllEngines runs the round-trip on every engine: the tap
// contract (log order = commit order) must hold regardless of engine.
func TestDurableAllEngines(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, dir, wal.Fsync, WithEngine(eng))
			for i := 0; i < 20; i++ {
				if _, err := s.CounterAdd("n", 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := openDurable(t, dir, wal.Fsync, WithEngine(eng))
			defer r.Close()
			if n, ok, _ := r.CounterGet("n"); !ok || n != 20 {
				t.Fatalf("n = %d, %v", n, ok)
			}
		})
	}
}
