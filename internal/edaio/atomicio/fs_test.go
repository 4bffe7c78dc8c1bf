package atomicio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// fireOnce returns a fire callback that injects op exactly on its n-th
// consultation (1-based), mimicking a faults.Injector "op:at=n+max=1"
// spec without importing the package (which would cycle).
func fireOnce(op string, n int) func(string) bool {
	calls := 0
	return func(got string) bool {
		if got != op {
			return false
		}
		calls++
		return calls == n
	}
}

func TestFaultFSDiskFullTearsWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	fsys := WithFaults(OS, fireOnce(FaultDiskFull, 1))
	a, err := OpenGroupAppenderFS(fsys, path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.AppendLine([]byte("0123456789abcdef"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append under disk-full: got %v, want ENOSPC", err)
	}
	if a.Offset() != 0 {
		t.Fatalf("offset advanced to %d on failed append", a.Offset())
	}
	// The appender rolled the torn bytes back, so a retry lands cleanly.
	if err := a.AppendLine([]byte("retry")); err != nil {
		t.Fatalf("retry after disk-full: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "retry\n" {
		t.Fatalf("journal after rollback+retry: %q", data)
	}
}

func TestFaultFSFsyncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	fsys := WithFaults(OS, fireOnce(FaultFsyncError, 1))
	g, err := OpenGroupAppenderFS(fsys, path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AppendLine([]byte("first")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append under fsync-error: got %v, want EIO", err)
	}
	if g.Offset() != 0 {
		t.Fatalf("offset advanced to %d past an unsynced batch", g.Offset())
	}
	if err := g.AppendLine([]byte("second")); err != nil {
		t.Fatalf("append after fsync recovered: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second\n" {
		t.Fatalf("journal after failed-then-good batch: %q", data)
	}
}

func TestFaultFSReadCorruptCaughtByFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	frame, err := EncodeFrame([]byte(`{"seq":1,"kind":"submit","job":"a1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(frame, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := WithFaults(OS, fireOnce(FaultReadCorrupt, 1))
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := NewFrameScanner(f)
	fr, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(fr.Err, ErrFrameCorrupt) {
		t.Fatalf("bit rot on read not detected: Err=%v payload=%q", fr.Err, fr.Payload)
	}
}

func TestFaultFSRenameTornLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := WithFaults(OS, fireOnce(FaultRenameTorn, 1))
	err := WriteFileFS(fsys, path, func(w io.Writer) error {
		_, werr := w.Write([]byte("new contents"))
		return werr
	})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("atomic write under rename-torn: got %v, want EIO", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old contents" {
		t.Fatalf("target mutated by failed swap: %q", data)
	}
	// The failed temp file must not linger and confuse a later scrub.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files after failed swap: %v", names)
	}
}

func TestFaultFSPassThrough(t *testing.T) {
	// With no fault firing, the wrapper must be byte-transparent.
	path := filepath.Join(t.TempDir(), "jobs.journal")
	fsys := WithFaults(OS, func(string) bool { return false })
	a, err := OpenGroupAppenderFS(fsys, path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	line, err := EncodeFrame([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendLine(line); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(line, '\n')) {
		t.Fatalf("pass-through read mismatch: %q", got)
	}
}
