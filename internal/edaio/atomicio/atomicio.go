// Package atomicio holds the crash-safe file primitives: WriteFile, the
// torn-write-proof writer behind flow checkpoints, served results, stolen
// job artifacts, skewopt's -o and the observability sinks; the
// checksummed frames and the group-commit appender of the skewd job
// journal; and the FS seam storage-fault tests drive. It sits below edaio
// so that internal/obs can use it: edaio depends on sta for its exports,
// and sta carries the obs recorder.
package atomicio

import (
	"fmt"
	"io"
	"path/filepath"
)

// WriteFile writes a file so that readers never observe a partial result:
// the payload is written to a temporary file in the destination directory,
// fsynced, and renamed over the target. On any failure the temporary file
// is removed and the previous contents of path (if any) are left
// untouched. This is the write primitive behind flow checkpoints, where a
// torn write would make a resume worse than no checkpoint at all.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	return WriteFileFS(OS, path, write)
}

// WriteFileFS is WriteFile against an explicit filesystem — the seam
// through which storage-fault tests drive ENOSPC, fsync failures, and
// torn renames into the atomic-write protocol.
func WriteFileFS(fsys FS, path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("edaio: creating temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmpName)
		}
	}()
	// CreateTemp opens 0600, which would survive the rename; the result is a
	// regular output file, so give it regular file permissions.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("edaio: chmod %s: %w", tmpName, err)
	}
	if err = write(tmp); err != nil {
		return fmt.Errorf("edaio: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("edaio: syncing %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("edaio: closing %s: %w", tmpName, err)
	}
	if err = fsys.Rename(tmpName, path); err != nil {
		// The deferred cleanup removes the orphaned temp file.
		return fmt.Errorf("edaio: renaming %s -> %s: %w", tmpName, path, err)
	}
	return nil
}
