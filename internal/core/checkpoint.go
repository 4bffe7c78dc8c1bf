package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/faults"
	"skewvar/internal/resilience"
)

// CheckpointConfig enables periodic flow checkpointing.
type CheckpointConfig struct {
	Path       string // checkpoint file ("" disables checkpointing)
	EveryIters int    // local iterations between mid-stage saves (default 1)
}

// Checkpoint captures flow progress: which stages have finished (with their
// trees) and, when a local stage was interrupted mid-run, its partial tree
// and completed-iteration count under the "partial" key.
type Checkpoint struct {
	Stage string                 // stage in progress ("" when between stages)
	Iter  int                    // completed local iterations within Stage
	Done  []string               // stages already completed, in run order
	Trees map[string]*ctree.Tree // per-stage trees; "partial" = Stage's tree so far
}

// checkpointFile is the on-disk JSON form. Trees are embedded as edaio
// design documents so a checkpoint survives the same validation as any
// other design input on load.
type checkpointFile struct {
	Version int                        `json:"version"`
	Stage   string                     `json:"stage,omitempty"`
	Iter    int                        `json:"iter,omitempty"`
	Done    []string                   `json:"done,omitempty"`
	Trees   map[string]json.RawMessage `json:"trees"`
}

const checkpointVersion = 1

// SaveCheckpoint atomically writes a checkpoint (tmp file + rename, with
// exponential-backoff retries for transient I/O failures). d supplies the
// design frame (die, pairs, corners) the trees are serialized against. The
// injector's checkpoint-write hook, when armed, fails individual write
// attempts so the retry and degradation paths can be tested
// deterministically.
func SaveCheckpoint(ctx context.Context, path string, d *ctree.Design, cp *Checkpoint, inj *faults.Injector) error {
	cf := checkpointFile{
		Version: checkpointVersion,
		Stage:   cp.Stage,
		Iter:    cp.Iter,
		Done:    cp.Done,
		Trees:   map[string]json.RawMessage{},
	}
	for name, tr := range cp.Trees {
		if tr == nil {
			continue
		}
		var buf bytes.Buffer
		dd := *d
		dd.Tree = tr
		if err := edaio.WriteDesign(&buf, &dd); err != nil {
			return fmt.Errorf("core: serializing checkpoint tree %q: %v: %w", name, err, resilience.ErrCheckpoint)
		}
		cf.Trees[name] = json.RawMessage(buf.Bytes())
	}
	op := func() error {
		if inj.Fire(faults.CheckpointWrite) {
			return fmt.Errorf("core: injected checkpoint write failure")
		}
		return atomicio.WriteFile(path, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&cf)
		})
	}
	if err := resilience.Retry(ctx, resilience.RetryConfig{}, op); err != nil {
		return fmt.Errorf("core: checkpoint %s: %v: %w", path, err, resilience.ErrCheckpoint)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written by SaveCheckpoint.
// Every embedded tree passes full edaio design validation; a corrupt or
// torn checkpoint — including one whose decode panics — yields a wrapped
// ErrCheckpoint instead of a flow that resumes from garbage, so callers
// can fall back to a fresh run (skewopt and skewd both do).
func LoadCheckpoint(path string) (cp *Checkpoint, err error) {
	// Decoding runs under Safely: a bit-flipped checkpoint must surface as
	// a typed load error, never as a panic out of the decode path.
	serr := resilience.Safely("checkpoint load", func() error {
		var lerr error
		cp, lerr = loadCheckpoint(path)
		return lerr
	})
	if serr != nil {
		if errors.Is(serr, resilience.ErrCheckpoint) {
			return nil, serr
		}
		return nil, fmt.Errorf("core: decoding checkpoint %s: %v: %w", path, serr, resilience.ErrCheckpoint)
	}
	return cp, nil
}

func loadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %v: %w", err, resilience.ErrCheckpoint)
	}
	var cf checkpointFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint %s: %v: %w", path, err, resilience.ErrCheckpoint)
	}
	if cf.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d: %w", path, cf.Version, checkpointVersion, resilience.ErrCheckpoint)
	}
	cp := &Checkpoint{Stage: cf.Stage, Iter: cf.Iter, Done: cf.Done, Trees: map[string]*ctree.Tree{}}
	for name, raw := range cf.Trees {
		dd, err := edaio.ReadDesign(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint tree %q: %v: %w", name, err, resilience.ErrCheckpoint)
		}
		cp.Trees[name] = dd.Tree
	}
	return cp, nil
}
