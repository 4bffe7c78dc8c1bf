package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skewvar/internal/faults"
)

// readLines returns the complete (newline-terminated) lines of path; a
// torn final line without a newline is ignored, as journal readers do.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexByte(b, '\n')
	if i < 0 {
		return nil
	}
	return strings.Split(string(b[:i]), "\n")
}

// groupConfigs is the batch/window sweep the equivalence suite pins: the
// fsync-per-line degenerate mode, small and large batches, with and
// without a timed window.
var groupConfigs = []struct {
	name   string
	batch  int
	window time.Duration
}{
	{"batch=1", 1, 0},
	{"batch=4/window=0", 4, 0},
	{"batch=4/window=2ms", 4, 2 * time.Millisecond},
	{"batch=32/window=0", 32, 0},
	{"batch=32/window=2ms", 32, 2 * time.Millisecond},
}

// TestGroupAppenderMatchesPerLine drives G concurrent appenders through
// every batch/window config and checks the committed file holds exactly
// the acked lines (all of them — no crash is injected), each intact,
// with every appender's own lines in its submission order.
func TestGroupAppenderMatchesPerLine(t *testing.T) {
	for _, cfg := range groupConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			g, err := OpenGroupAppender(path, GroupOptions{MaxBatch: cfg.batch, Window: cfg.window})
			if err != nil {
				t.Fatal(err)
			}
			const G, L = 4, 25
			var wg sync.WaitGroup
			for i := 0; i < G; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < L; j++ {
						if err := g.AppendLine([]byte(fmt.Sprintf("g%d-%03d", i, j))); err != nil {
							t.Errorf("append g%d-%03d: %v", i, j, err)
						}
					}
				}(i)
			}
			wg.Wait()
			if g.Lines() != G*L {
				t.Errorf("Lines() = %d, want %d", g.Lines(), G*L)
			}
			if cfg.batch == 1 && g.Syncs() != G*L {
				t.Errorf("batch=1 Syncs() = %d, want %d (per-line discipline)", g.Syncs(), G*L)
			}
			if cfg.batch > 1 && g.Syncs() > g.Lines() {
				t.Errorf("Syncs() = %d exceeds Lines() = %d", g.Syncs(), g.Lines())
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			lines := readLines(t, path)
			if len(lines) != G*L {
				t.Fatalf("file has %d lines, want %d", len(lines), G*L)
			}
			next := make([]int, G) // per-appender order check
			seen := map[string]bool{}
			for _, ln := range lines {
				if seen[ln] {
					t.Fatalf("line %q duplicated", ln)
				}
				seen[ln] = true
				var gi, j int
				if _, err := fmt.Sscanf(ln, "g%d-%d", &gi, &j); err != nil {
					t.Fatalf("corrupt line %q", ln)
				}
				if j != next[gi] {
					t.Fatalf("appender %d out of order: got line %d, want %d", gi, j, next[gi])
				}
				next[gi]++
			}
		})
	}
}

// tortureResult is one seeded torture run's observable outcome.
type tortureResult struct {
	acked   map[string]bool
	unacked map[string]bool
}

// runTorture appends concurrently while a seeded faults.Injector crashes
// one group flush at a seeded batch boundary, then returns who was acked.
func runTorture(t *testing.T, path string, seed int64) tortureResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := []int{1, 2, 4, 8, 32}[rng.Intn(5)]
	window := []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}[rng.Intn(3)]
	G := 1 + rng.Intn(4)
	L := 1 + rng.Intn(20)

	// The injector's call counter ticks once per crash point per flush
	// (3 per batch), so a seeded index lands on every boundary of every
	// early flush across the seed sweep.
	inj := faults.New(seed).Arm(faults.JournalGroupFlush, faults.Spec{At: []int{1 + rng.Intn(18)}})
	keep := 1 + rng.Intn(64)
	hook := func(point string, batchBytes int) (bool, int) {
		return inj.Fire(faults.JournalGroupFlush), keep
	}

	g, err := OpenGroupAppender(path, GroupOptions{MaxBatch: batch, Window: window, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	res := tortureResult{acked: map[string]bool{}, unacked: map[string]bool{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < L; j++ {
				line := fmt.Sprintf("s%d-g%d-%03d", seed, i, j)
				err := g.AppendLine([]byte(line))
				mu.Lock()
				if err == nil {
					res.acked[line] = true
				} else {
					res.unacked[line] = true
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	g.Close() // no-op after a crash; flushes the rest when the crash never fired
	return res
}

// TestGroupCommitDurabilityTorture is the property suite of the
// group-commit durability contract, over 200+ seeds: concurrent
// appenders, every batch/window shape, one injected crash at a seeded
// batch boundary (before write / mid-write torn tail / after write
// before fsync-ack). Invariants after reopening the journal:
//
//  1. every acked line is present, intact, exactly once;
//  2. every complete line in the file is a submitted line — a torn tail
//     never corrupts a neighbor, and healing removes it entirely;
//  3. an unacked line may be present (crash between write and ack) or
//     absent, but never mangled and never duplicated;
//  4. the healed journal accepts new appends directly after its tail.
func TestGroupCommitDurabilityTorture(t *testing.T) {
	crashes := 0
	for seed := int64(0); seed < 220; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.jsonl")
		res := runTorture(t, path, seed)
		if len(res.unacked) > 0 {
			crashes++
		}

		// Reopen as the replayer would: heal the torn tail, then read.
		re, err := OpenGroupAppender(path, GroupOptions{})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		probe := fmt.Sprintf("s%d-probe", seed)
		if err := re.AppendLine([]byte(probe)); err != nil {
			t.Fatalf("seed %d: probe append after heal: %v", seed, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}

		lines := readLines(t, path)
		count := map[string]int{}
		for _, ln := range lines {
			count[ln]++
		}
		if count[probe] != 1 {
			t.Fatalf("seed %d: probe line count = %d, want 1", seed, count[probe])
		}
		delete(count, probe)
		for ln := range res.acked {
			if count[ln] != 1 {
				t.Errorf("seed %d: ACKED line %q appears %d times after crash+reopen, want 1",
					seed, ln, count[ln])
			}
		}
		for ln, n := range count {
			if n != 1 {
				t.Errorf("seed %d: line %q duplicated (%d times)", seed, ln, n)
			}
			if !res.acked[ln] && !res.unacked[ln] {
				t.Errorf("seed %d: file holds line %q that was never submitted (corruption)", seed, ln)
			}
		}
	}
	if crashes < 100 {
		t.Errorf("only %d/220 seeds injected a crash; the sweep is under-exercising the boundaries", crashes)
	}
}

// TestGroupCrashLosesOnlyUnacked pins the three crash points one by one
// on a deterministic single-flush schedule: a batch of 3 lines dies at
// each boundary; the previously acked batch always survives, the dying
// batch is never acked, and a mid-write tear heals without touching the
// durable prefix.
func TestGroupCrashLosesOnlyUnacked(t *testing.T) {
	for pi, point := range []string{FlushBeforeWrite, FlushMidWrite, FlushBeforeSync} {
		t.Run(point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			hook := func(p string, _ int) (bool, int) { return p == point, 7 }
			// First batch commits clean (no hook), second dies at `point`.
			g, err := OpenGroupAppender(path, GroupOptions{MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.AppendLine([]byte("durable-1")); err != nil {
				t.Fatal(err)
			}
			if err := g.AppendLine([]byte("durable-2")); err != nil {
				t.Fatal(err)
			}
			durableTail := g.Offset()
			g.Close()

			// MaxBatch 3 with a huge window: the third arrival is the
			// leader that flushes all three lines as one doomed batch.
			g2, err := OpenGroupAppender(path, GroupOptions{MaxBatch: 3, Window: time.Minute, Hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 3)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = g2.AppendLine([]byte(fmt.Sprintf("doomed-%d-%d", pi, i)))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Errorf("doomed line %d was acked across an injected %s crash", i, point)
				}
			}
			// Offset reflects the durable tail, not the dying batch — the
			// mid-batch rollback regression.
			if got := g2.Offset(); got != durableTail {
				t.Errorf("Offset() after %s crash = %d, want durable tail %d", point, got, durableTail)
			}
			if err := g2.AppendLine([]byte("late")); err == nil {
				t.Error("append after crash succeeded; appender must be dead")
			}

			re, err := OpenGroupAppender(path, GroupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			re.Close()
			lines := readLines(t, path)
			if len(lines) < 2 || lines[0] != "durable-1" || lines[1] != "durable-2" {
				t.Fatalf("durable prefix damaged by %s crash: %q", point, lines)
			}
			for _, ln := range lines[2:] {
				if !strings.HasPrefix(ln, "doomed-") {
					t.Fatalf("unexpected line %q after the durable prefix", ln)
				}
			}
		})
	}
}

// TestGroupAppenderKill pins Kill semantics: pending lines fail, flushed
// lines persist, and the file stays readable for the post-mortem steal.
func TestGroupAppenderKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	g, err := OpenGroupAppender(path, GroupOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AppendLine([]byte("survives")); err != nil {
		t.Fatal(err)
	}
	g.Kill()
	if err := g.AppendLine([]byte("rejected")); err == nil {
		t.Error("append after Kill succeeded")
	}
	lines := readLines(t, path)
	if len(lines) != 1 || lines[0] != "survives" {
		t.Errorf("post-kill journal = %q, want just the flushed line", lines)
	}
}

// readAll returns path's full contents, torn tail included.
func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The cases below pin the per-line discipline of the zero GroupOptions —
// the configuration the journal runs at by default.

func TestAppenderAppendsAcrossReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	a, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.AppendLine([]byte(fmt.Sprintf(`{"seq":%d}`, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	a2, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.AppendLine([]byte(`{"seq":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}

	want := []byte("{\"seq\":1}\n{\"seq\":2}\n{\"seq\":3}\n{\"seq\":4}\n")
	if got := readAll(t, path); !bytes.Equal(got, want) {
		t.Errorf("journal = %q, want %q", got, want)
	}
}

func TestAppenderHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	// Two good lines plus a torn third (no trailing newline), as a crash
	// mid-append would leave.
	if err := os.WriteFile(path, []byte("{\"seq\":1}\n{\"seq\":2}\n{\"se"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendLine([]byte(`{"seq":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	want := []byte("{\"seq\":1}\n{\"seq\":2}\n{\"seq\":3}\n")
	if got := readAll(t, path); !bytes.Equal(got, want) {
		t.Errorf("healed journal = %q, want %q", got, want)
	}
}

func TestAppenderHealsWhollyTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("garbage-without-newline"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset() != 0 {
		t.Errorf("offset after healing a newline-free file = %d, want 0", a.Offset())
	}
	if err := a.AppendLine([]byte("first")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got := readAll(t, path); !bytes.Equal(got, []byte("first\n")) {
		t.Errorf("journal = %q", got)
	}
}

func TestAppenderRejectsEmbeddedNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	a, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.AppendLine([]byte("two\nlines")); !errors.Is(err, ErrLineBreak) {
		t.Errorf("embedded newline: got %v, want ErrLineBreak", err)
	}
	if a.Offset() != 0 {
		t.Errorf("offset advanced on rejected line: %d", a.Offset())
	}
}

func TestAppenderCloseDoesNotDoubleSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	a, err := OpenGroupAppender(path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.AppendLine([]byte(fmt.Sprintf("l%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Syncs(); got != 3 {
		t.Fatalf("Syncs() after 3 appends = %d, want 3 (one fsync per line)", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Every AppendLine already synced, so Close must not have issued a
	// redundant fourth fsync — the double-sync regression.
	if got := a.Syncs(); got != 3 {
		t.Errorf("Syncs() after Close = %d, want 3 (no redundant close-time fsync)", got)
	}
}
