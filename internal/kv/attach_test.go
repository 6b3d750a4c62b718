package kv

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"modtx/internal/wal"
)

// attachGateFS is the real filesystem counting the snapshots installed.
type attachGateFS struct {
	wal.FS
	snaps chan struct{} // one token per snapshot installed
}

func (g *attachGateFS) Rename(oldpath, newpath string) error {
	err := g.FS.Rename(oldpath, newpath)
	if err == nil && strings.HasSuffix(oldpath, ".tmp") {
		g.snaps <- struct{}{}
	}
	return err
}

// TestAttachHoldsRotationCheckpoints: a log whose tail is already past
// the segment size rotates as soon as it opens, and the log checkpoints
// that rotation itself, from its files, while the store is still
// attaching. The checkpoint reads nothing of the store, so there is no
// attach for it to wait for; the snapshot is written, and a reopen
// recovers every key.
func TestAttachHoldsRotationCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.None)
	want := map[string]string{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want[k] = strings.Repeat("v", 32) + k
		if err := s.Set(k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with segments smaller than that tail.
	g := &attachGateFS{FS: wal.OSFS, snaps: make(chan struct{}, 8)}
	s = openDurable(t, dir, wal.None, WithWALSegmentBytes(64), WithWALFS(g))
	select {
	case <-g.snaps:
	case <-time.After(30 * time.Second):
		t.Fatal("the rotation on open was never checkpointed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openDurable(t, dir, wal.None)
	defer s.Close()
	for k, v := range want {
		if got, ok, err := s.Get(k); err != nil || !ok || string(got) != v {
			t.Errorf("Get(%q) = %q, %v, %v after the rotated reopen", k, got, ok, err)
		}
	}
}
