package wal

import (
	"fmt"
	"io"
	"io/fs"
	"os"
)

// FS is the seam between the WAL and the filesystem: every file
// operation the package performs — segment and snapshot creation,
// appends, fsyncs, directory scans, recovery repair — goes through one
// of these methods, so a test can interpose fault injection
// (internal/fault) at exactly the syscall boundary without touching
// real disks or monkey-patching. OSFS is the real implementation and
// the default everywhere an FS is optional.
//
// The method set is intentionally the WAL's actual footprint, not a
// general VFS: if the package grows a new kind of file operation, it
// must grow here too, which is the point — the fault matrix stays
// enumerable.
type FS interface {
	// OpenFile opens name like os.OpenFile. The returned File is used
	// for appends (segments) and whole-file writes (snapshot temps).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads name completely, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Open opens name for reading, like os.Open: a segment is read as a
	// stream, a record at a time.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists dir, like os.ReadDir.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// MkdirAll creates dir and parents, like os.MkdirAll.
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory so renames and creations in it are
	// durable.
	SyncDir(name string) error
}

// File is the open-file surface the WAL uses: append writes, fsync,
// close. Implemented by *os.File.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Open(name string) (io.ReadCloser, error)      { return os.Open(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// fsOrOS returns fsys, or the real filesystem when fsys is nil — the
// nil-tolerant default every entry point funnels through.
func fsOrOS(fsys FS) FS {
	if fsys == nil {
		return OSFS
	}
	return fsys
}
