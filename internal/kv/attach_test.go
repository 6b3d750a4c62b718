package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"modtx/internal/wal"
)

// attachGateFS is the real filesystem with one stall and one probe, for
// a directory whose every shard log rotates the moment it is opened.
// The rotations are let through one at a time, and the open of the last
// shard's tail — attachLogs' final step — is held until all the others
// are done. So the first rotation's hook fires while attachLogs still
// has a log to open, with the remaining rotations' fsyncs as its head
// start: event-ordered slack, no clock. The probe notes whether a
// checkpoint then wrote its snapshot before attachLogs was let go.
type attachGateFS struct {
	wal.FS
	lastDir string // the last shard's log directory
	others  int    // rotations that finish before its tail may open

	mu       sync.Mutex
	cond     *sync.Cond
	rotating string // directory of the rotation in progress, "" if none
	rotated  int
	released bool          // the held open has been let go
	early    bool          // a snapshot was begun before that
	snaps    chan struct{} // one token per snapshot installed
}

func (g *attachGateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	g.mu.Lock()
	switch {
	case strings.HasSuffix(name, ".tmp"): // a checkpoint writing its snapshot
		if !g.released {
			g.early = true
		}
	case flag&os.O_EXCL != 0: // a rotation creating its next segment
		for g.rotating != "" {
			g.cond.Wait()
		}
		g.rotating = filepath.Dir(name)
	case flag&os.O_APPEND != 0 && filepath.Dir(name) == g.lastDir:
		for g.rotated < g.others {
			g.cond.Wait()
		}
		g.released = true
	}
	g.mu.Unlock()
	return g.FS.OpenFile(name, flag, perm)
}

// SyncDir is the last step of a rotation (and of a snapshot install,
// which by then is in some other directory than the one rotating).
func (g *attachGateFS) SyncDir(dir string) error {
	err := g.FS.SyncDir(dir)
	g.mu.Lock()
	if dir == g.rotating {
		g.rotating = ""
		g.rotated++
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	return err
}

func (g *attachGateFS) Rename(oldpath, newpath string) error {
	err := g.FS.Rename(oldpath, newpath)
	if err == nil && strings.HasSuffix(oldpath, ".tmp") {
		g.snaps <- struct{}{}
	}
	return err
}

// TestAttachHoldsRotationCheckpoints reproduces ROADMAP 0(e): a log
// whose tail is already past the segment size rotates inside
// wal.OpenLog, and the rotation hook's checkpoint must not run — it
// reads sh.feed.log and dur.attached — until attachLogs has opened
// every log. Held checkpoints are not dropped: each rotated shard still
// gets its snapshot once the attach is complete.
func TestAttachHoldsRotationCheckpoints(t *testing.T) {
	const shards = 16
	dir := t.TempDir()
	s := openDurable(t, dir, wal.None, WithShards(shards))
	// Put a few hundred bytes in every shard's tail segment.
	want := map[string]string{}
	perShard := make([]int, shards)
	for i, full := 0, 0; full < shards; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if sh := s.ShardOf(k); perShard[sh] < 4 {
			if perShard[sh]++; perShard[sh] == 4 {
				full++
			}
			want[k] = strings.Repeat("v", 32) + k
			if err := s.Set(k, []byte(want[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
	lastDir := s.shardDir(shards - 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with segments smaller than those tails (but larger than an
	// empty segment's header, so the marker log stays put).
	g := &attachGateFS{FS: wal.OSFS, lastDir: lastDir, others: shards - 1, snaps: make(chan struct{}, shards)}
	g.cond = sync.NewCond(&g.mu)
	s = openDurable(t, dir, wal.None, WithShards(shards), WithWALSegmentBytes(64), WithWALFS(g))
	g.mu.Lock()
	early := g.early
	g.mu.Unlock()
	if early {
		t.Error("a rotation-hook checkpoint ran while attachLogs was still opening logs")
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < shards; i++ {
		select {
		case <-g.snaps:
		case <-timeout:
			t.Fatalf("%d of %d rotated shards were checkpointed after the attach", i, shards)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openDurable(t, dir, wal.None, WithShards(shards))
	defer s.Close()
	for k, v := range want {
		if got, ok, err := s.Get(k); err != nil || !ok || string(got) != v {
			t.Errorf("Get(%q) = %q, %v, %v after the rotated reopen", k, got, ok, err)
		}
	}
}
