package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("content = %q", b)
	}
	// A failing write leaves the previous contents intact and no temp litter.
	sentinel := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("content after failed write = %q", b)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}
