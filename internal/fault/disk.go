package fault

import (
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"modtx/internal/wal"
)

// DiskPlan is a seeded schedule of disk faults. Probabilities are per
// operation in [0, 1]; zero values inject nothing, so the zero plan is
// a transparent passthrough.
type DiskPlan struct {
	// Seed fixes the fault schedule (not the goroutine schedule).
	Seed uint64

	// WriteErrProb fails a file write outright with EIO.
	WriteErrProb float64
	// TornWriteProb lands a prefix of the write's bytes (a torn write:
	// roughly half, at least one byte) and then fails with EIO — the
	// shape recovery's torn-tail repair exists for.
	TornWriteProb float64
	// SyncErrProb fails an fsync (file or directory) with EIO.
	SyncErrProb float64
	// OpenErrProb fails an OpenFile with EIO.
	OpenErrProb float64
	// ReadErrProb fails a ReadFile with EIO.
	ReadErrProb float64

	// WriteBudget, when > 0, is the total number of bytes accepted
	// across all files before every further write fails with ENOSPC —
	// the disk filling up.
	WriteBudget int64

	// Latency, with LatencyProb, sleeps a write or sync before it
	// proceeds — a stalling disk rather than a failing one.
	Latency     time.Duration
	LatencyProb float64
}

// DiskStats counts injected faults per kind.
type DiskStats struct {
	WriteErrs int64 // failed writes (EIO)
	TornWrite int64 // short writes
	ENOSPC    int64 // budget-exhausted writes
	SyncErrs  int64 // failed fsyncs
	OpenErrs  int64 // failed opens
	ReadErrs  int64 // failed reads
	Delays    int64 // latency injections
}

// Total sums every injected fault (latency excluded: it is not a
// failure).
func (s DiskStats) Total() int64 {
	return s.WriteErrs + s.TornWrite + s.ENOSPC + s.SyncErrs + s.OpenErrs + s.ReadErrs
}

// DiskFS is a fault-injecting wal.FS. It wraps an inner filesystem
// (the real one by default), drawing faults from its seeded plan plus
// any scripted one-shots. All state is behind one mutex: decisions are
// taken in call order, which is what makes a single-goroutine test
// fully deterministic.
type DiskFS struct {
	under wal.FS

	mu       sync.Mutex
	rng      *rand.Rand
	plan     DiskPlan
	healed   bool
	written  int64
	nextWr   []error // scripted one-shot write errors, FIFO
	nextSync []error
	nextOpen []error
	nextRead []error
	nextTear int // scripted torn writes pending
	stats    DiskStats
}

// NewDiskFS wraps under (nil = the real filesystem) with plan.
func NewDiskFS(under wal.FS, plan DiskPlan) *DiskFS {
	if under == nil {
		under = wal.OSFS
	}
	d := &DiskFS{under: under, plan: plan}
	d.rng = newRNG(plan.Seed)
	return d
}

// FailNextWrite scripts err for the next file write (after any
// already-scripted ones).
func (d *DiskFS) FailNextWrite(err error) {
	d.mu.Lock()
	d.nextWr = append(d.nextWr, err)
	d.mu.Unlock()
}

// TearNextWrite scripts a torn write: the next file write lands half
// its bytes and then fails with EIO.
func (d *DiskFS) TearNextWrite() {
	d.mu.Lock()
	d.nextTear++
	d.mu.Unlock()
}

// FailNextSync scripts err for the next fsync.
func (d *DiskFS) FailNextSync(err error) {
	d.mu.Lock()
	d.nextSync = append(d.nextSync, err)
	d.mu.Unlock()
}

// FailNextOpen scripts err for the next OpenFile.
func (d *DiskFS) FailNextOpen(err error) {
	d.mu.Lock()
	d.nextOpen = append(d.nextOpen, err)
	d.mu.Unlock()
}

// FailNextRead scripts err for the next ReadFile or Open.
func (d *DiskFS) FailNextRead(err error) {
	d.mu.Lock()
	d.nextRead = append(d.nextRead, err)
	d.mu.Unlock()
}

// Heal stops all injection — scheduled and scripted — and resets the
// write budget. Recovery tests call this before reopening the store.
func (d *DiskFS) Heal() {
	d.mu.Lock()
	d.healed = true
	d.nextWr, d.nextSync, d.nextOpen, d.nextRead = nil, nil, nil, nil
	d.nextTear = 0
	d.written = 0
	d.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (d *DiskFS) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// maybeDelay sleeps outside the lock when the plan says so.
func (d *DiskFS) maybeDelay() {
	d.mu.Lock()
	hit := !d.healed && d.plan.LatencyProb > 0 && d.rng.Float64() < d.plan.LatencyProb
	if hit {
		d.stats.Delays++
	}
	dur := d.plan.Latency
	d.mu.Unlock()
	if hit {
		time.Sleep(dur)
	}
}

// writeFault decides the fate of an n-byte write: the error to inject
// (nil = none) and how many bytes to let through first (torn writes).
func (d *DiskFS) writeFault(n int) (keep int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nextWr) > 0 {
		err, d.nextWr = d.nextWr[0], d.nextWr[1:]
		d.stats.WriteErrs++
		return 0, err
	}
	if d.nextTear > 0 {
		d.nextTear--
		d.stats.TornWrite++
		return n / 2, ErrIO
	}
	if d.healed {
		return n, nil
	}
	if d.plan.WriteBudget > 0 && d.written+int64(n) > d.plan.WriteBudget {
		d.stats.ENOSPC++
		return 0, ErrDiskFull
	}
	if d.plan.WriteErrProb > 0 && d.rng.Float64() < d.plan.WriteErrProb {
		d.stats.WriteErrs++
		return 0, ErrIO
	}
	if d.plan.TornWriteProb > 0 && n > 1 && d.rng.Float64() < d.plan.TornWriteProb {
		d.stats.TornWrite++
		return n / 2, ErrIO
	}
	d.written += int64(n)
	return n, nil
}

func (d *DiskFS) syncFault() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nextSync) > 0 {
		var err error
		err, d.nextSync = d.nextSync[0], d.nextSync[1:]
		d.stats.SyncErrs++
		return err
	}
	if !d.healed && d.plan.SyncErrProb > 0 && d.rng.Float64() < d.plan.SyncErrProb {
		d.stats.SyncErrs++
		return ErrIO
	}
	return nil
}

func (d *DiskFS) openFault() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nextOpen) > 0 {
		var err error
		err, d.nextOpen = d.nextOpen[0], d.nextOpen[1:]
		d.stats.OpenErrs++
		return err
	}
	if !d.healed && d.plan.OpenErrProb > 0 && d.rng.Float64() < d.plan.OpenErrProb {
		d.stats.OpenErrs++
		return ErrIO
	}
	return nil
}

func (d *DiskFS) readFault() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.nextRead) > 0 {
		var err error
		err, d.nextRead = d.nextRead[0], d.nextRead[1:]
		d.stats.ReadErrs++
		return err
	}
	if !d.healed && d.plan.ReadErrProb > 0 && d.rng.Float64() < d.plan.ReadErrProb {
		d.stats.ReadErrs++
		return ErrIO
	}
	return nil
}

// OpenFile implements wal.FS.
func (d *DiskFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if err := d.openFault(); err != nil {
		return nil, err
	}
	f, err := d.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, d: d}, nil
}

// ReadFile implements wal.FS.
func (d *DiskFS) ReadFile(name string) ([]byte, error) {
	if err := d.readFault(); err != nil {
		return nil, err
	}
	return d.under.ReadFile(name)
}

// Open implements wal.FS; it fails as ReadFile does.
func (d *DiskFS) Open(name string) (io.ReadCloser, error) {
	if err := d.readFault(); err != nil {
		return nil, err
	}
	return d.under.Open(name)
}

// ReadDir implements wal.FS.
func (d *DiskFS) ReadDir(name string) ([]fs.DirEntry, error) { return d.under.ReadDir(name) }

// Rename implements wal.FS.
func (d *DiskFS) Rename(oldpath, newpath string) error { return d.under.Rename(oldpath, newpath) }

// Remove implements wal.FS.
func (d *DiskFS) Remove(name string) error { return d.under.Remove(name) }

// Truncate implements wal.FS.
func (d *DiskFS) Truncate(name string, size int64) error { return d.under.Truncate(name, size) }

// MkdirAll implements wal.FS.
func (d *DiskFS) MkdirAll(name string, perm os.FileMode) error {
	return d.under.MkdirAll(name, perm)
}

// SyncDir implements wal.FS: directory fsyncs share the sync fault
// class.
func (d *DiskFS) SyncDir(name string) error {
	d.maybeDelay()
	if err := d.syncFault(); err != nil {
		return err
	}
	return d.under.SyncDir(name)
}

// faultFile interposes on the write/sync path of one open file.
type faultFile struct {
	f wal.File
	d *DiskFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.d.maybeDelay()
	keep, ferr := ff.d.writeFault(len(p))
	if ferr != nil && keep == 0 {
		return 0, ferr
	}
	n, err := ff.f.Write(p[:keep])
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr // torn write: keep bytes landed, then the fault
	}
	return n, nil
}

func (ff *faultFile) Sync() error {
	ff.d.maybeDelay()
	if err := ff.d.syncFault(); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
