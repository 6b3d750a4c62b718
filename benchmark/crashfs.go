package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/wal"
)

// crashFS sits in the WAL's filesystem seam (kv.WithWALFS) over the real
// filesystem and remembers, for every file written through it, how many
// bytes had been written when its last fsync returned. crashCopy then
// produces what a power cut would have left: every file cut back to its
// synced length. Copying the directory as it stands would also copy
// bytes that only the page cache holds, and so could not tell an
// acknowledged-but-unsynced write from a durable one.
//
// It also counts every byte the durability layer writes (log records,
// headers, snapshots, the marker log): the numerator of write_amp.
//
// With a syncFloor it is also the device model of durable-write-fsync2ms:
// every fsync is the real one, and then waits out the rest of the floor.
// The sandbox disk's own fsync takes 0.2 to 0.5 ms, but how 16 writers'
// fsyncs of different files queue behind each other in the filesystem's
// journal, and how the runtime hands on the processors of the threads
// blocked in them, differs from run to run: throughput 8.9k to 16.4k
// ops/s and a median op of 245 to 880 us over six runs of one commit,
// which no bound the driver allows can hold. Under the floor the workload measures
// what the WAL does around an fsync — encoding, batching, group commit,
// waking waiters — and how many fsyncs it needs; the real fsync's own time
// is kept, sample by sample, for wal.fsync_p50_us and wal.fsync_p99_us.
type crashFS struct {
	wal.FS
	syncFloor time.Duration // 0: an fsync takes what the disk takes
	mu        sync.Mutex
	files     map[string]*fileState
	syncNs    []int64 // how long each real file fsync took
	written   atomic.Int64
}

type fileState struct {
	size, synced atomic.Int64
}

func newCrashFS(syncFloor time.Duration) *crashFS {
	return &crashFS{FS: wal.OSFS, syncFloor: syncFloor, files: map[string]*fileState{}}
}

type crashFile struct {
	wal.File
	fs *crashFS
	st *fileState
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st := &fileState{}
	if flag&os.O_TRUNC == 0 {
		// Reopened for append: what is already there was synced by
		// whoever closed it (the WAL syncs on Close).
		if info, err := os.Stat(name); err == nil {
			st.size.Store(info.Size())
			st.synced.Store(info.Size())
		}
	}
	c.mu.Lock()
	c.files[filepath.Clean(name)] = st
	c.mu.Unlock()
	return &crashFile{File: f, fs: c, st: st}, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.size.Add(int64(n))
	f.fs.written.Add(int64(n))
	return n, err
}

// Sync is the real fsync. Bytes written before it began are covered by
// it; a write racing it may or may not be, and is not counted.
func (f *crashFile) Sync() error {
	size := f.st.size.Load()
	t0 := time.Now()
	if err := f.File.Sync(); err != nil {
		return err
	}
	took := time.Since(t0)
	for old := f.st.synced.Load(); size > old && !f.st.synced.CompareAndSwap(old, size); {
		old = f.st.synced.Load()
	}
	f.fs.mu.Lock()
	f.fs.syncNs = append(f.fs.syncNs, int64(took))
	f.fs.mu.Unlock()
	time.Sleep(f.fs.syncFloor - took)
	return nil
}

func (c *crashFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.FS.SyncDir(dir)
	time.Sleep(c.syncFloor - time.Since(t0))
	return err
}

// takeSyncs returns, sorted, the real fsync times recorded since the last
// call, and forgets them.
func (c *crashFS) takeSyncs() []int64 {
	c.mu.Lock()
	out := c.syncNs
	c.syncNs = nil
	c.mu.Unlock()
	slices.Sort(out)
	return out
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	if err := c.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[filepath.Clean(oldpath)]; ok {
		delete(c.files, filepath.Clean(oldpath))
		c.files[filepath.Clean(newpath)] = st
	}
	c.mu.Unlock()
	return nil
}

func (c *crashFS) Remove(name string) error {
	err := c.FS.Remove(name)
	if err == nil {
		c.mu.Lock()
		delete(c.files, filepath.Clean(name))
		c.mu.Unlock()
	}
	return err
}

func (c *crashFS) Truncate(name string, size int64) error {
	err := c.FS.Truncate(name, size)
	if err == nil {
		c.mu.Lock()
		if st, ok := c.files[filepath.Clean(name)]; ok {
			st.size.Store(size)
			st.synced.Store(min(st.synced.Load(), size))
		}
		c.mu.Unlock()
	}
	return err
}

// errChanged reports that a file vanished under crashCopy: a checkpoint
// compacted the log meanwhile, and the copy must be taken again.
var errChanged = errors.New("data directory changed during copy")

// crashCopy copies src to dst keeping, of each file written through c,
// only its synced prefix. Files c never saw were written and closed
// before it was installed and are copied whole.
func (c *crashFS) crashCopy(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return errChanged
			}
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		c.mu.Lock()
		st, tracked := c.files[filepath.Clean(path)]
		c.mu.Unlock()
		in, err := os.Open(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return errChanged
			}
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		var r io.Reader = in
		if tracked {
			r = io.LimitReader(in, st.synced.Load())
		}
		if _, err := io.Copy(out, r); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
