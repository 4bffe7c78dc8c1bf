package atomicio

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// File is the slice of *os.File the durability layer actually uses. Every
// appender and atomic-write path in this package goes through it, so a
// test can substitute a fault-injecting file without touching the
// production call sites.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
	Chmod(mode os.FileMode) error
	Name() string
}

// FS is the filesystem seam of the durability layer: the exact set of
// operations Appender, GroupAppender, and WriteFile perform. Production
// code uses OS; storage-fault tests wrap it with WithFaults so ENOSPC,
// fsync EIO, bit rot on read, and torn renames replay deterministically
// by fault-injection seed.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// CreateTemp creates a temporary file with os.CreateTemp semantics.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat stats name.
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// Storage-fault operation names, consulted through the WithFaults fire
// callback. They double as the hook names of internal/faults, so a
// -faults spec like "disk-full:at=3" drives this seam directly.
const (
	// FaultDiskFull fails a write with ENOSPC after landing only half of
	// its bytes — the torn short write a full disk produces.
	FaultDiskFull = "disk-full"
	// FaultFsyncError fails an fsync with EIO. The page cache may or may
	// not hold the bytes; the caller must treat the write as not durable.
	FaultFsyncError = "fsync-error"
	// FaultReadCorrupt flips one bit in the data returned by a read —
	// silent bit rot, detectable only by a checksum.
	FaultReadCorrupt = "read-corrupt"
	// FaultRenameTorn fails a rename with EIO, leaving the destination
	// untouched — the crash-before-rename half of an atomic swap.
	FaultRenameTorn = "rename-torn"
)

// WithFaults wraps base so that every operation consults fire with the
// matching fault name first. A true verdict injects that operation's
// deterministic failure (see the Fault constants); false passes through.
// fire is typically (*faults.Injector).Fire, so the whole storage-fault
// plan replays by seed. A nil fire returns base unchanged.
func WithFaults(base FS, fire func(op string) bool) FS {
	if fire == nil {
		return base
	}
	return &faultFS{base: base, fire: fire}
}

type faultFS struct {
	base FS
	fire func(op string) bool
}

func (f *faultFS) wrap(fl File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: fl, fs: f}, nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return f.wrap(f.base.OpenFile(name, flag, perm))
}
func (f *faultFS) Open(name string) (File, error) { return f.wrap(f.base.Open(name)) }
func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	return f.wrap(f.base.CreateTemp(dir, pattern))
}
func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.fire(FaultRenameTorn) {
		return fmt.Errorf("edaio: injected torn rename %s -> %s: %w", oldpath, newpath, syscall.EIO)
	}
	return f.base.Rename(oldpath, newpath)
}
func (f *faultFS) Remove(name string) error              { return f.base.Remove(name) }
func (f *faultFS) Stat(name string) (os.FileInfo, error) { return f.base.Stat(name) }

// faultFile injects write/sync/read faults on one open file.
type faultFile struct {
	File
	fs *faultFS
}

// shortWrite lands the first half of p (rounded down) and reports ENOSPC
// — deterministic, so a torture run replays the same torn bytes.
func (f *faultFile) shortWrite(p []byte, writeAt func([]byte) (int, error)) (int, error) {
	n := 0
	if half := len(p) / 2; half > 0 {
		n, _ = writeAt(p[:half])
	}
	return n, fmt.Errorf("edaio: injected disk-full writing %s (%d/%d bytes): %w",
		f.Name(), n, len(p), syscall.ENOSPC)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.fire(FaultDiskFull) {
		return f.shortWrite(p, f.File.Write)
	}
	return f.File.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.fire(FaultDiskFull) {
		return f.shortWrite(p, func(q []byte) (int, error) { return f.File.WriteAt(q, off) })
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.fs.fire(FaultFsyncError) {
		return fmt.Errorf("edaio: injected fsync failure on %s: %w", f.Name(), syscall.EIO)
	}
	return f.File.Sync()
}

// corrupt flips one bit in the middle of the returned data — the bit-rot
// model a per-record checksum exists to catch.
func corrupt(p []byte, n int) {
	if n > 0 {
		p[n/2] ^= 0x40
	}
}

func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n > 0 && f.fs.fire(FaultReadCorrupt) {
		corrupt(p, n)
	}
	return n, err
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if n > 0 && f.fs.fire(FaultReadCorrupt) {
		corrupt(p, n)
	}
	return n, err
}
