package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"skewvar/internal/faults"
	"skewvar/internal/obs"
)

// These tests pin the group-commit equivalence contract: whatever the
// batch/window tuning, the set of jobs a restarted daemon replays — and
// the set a fleet peer sees when stealing the journal — is exactly the
// set of acknowledged admissions. Batching moves fsyncs, never the ack.

// groupTunings is the batch×window sweep the equivalence suite runs;
// {1, 0} is the fsync-per-line baseline every other tuning must match.
var groupTunings = []struct {
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

// newTunedServer builds a Server with the given journal tuning but does
// NOT start its workers: admitted jobs stay queued, keeping the test on
// the journal path rather than the optimization flows.
func newTunedServer(t *testing.T, spool string, batch int, window time.Duration) *Server {
	t.Helper()
	th, ch, model, _ := fixtures(t)
	s, err := New(Config{
		SpoolDir:      spool,
		Workers:       2,
		QueueDepth:    64,
		JournalBatch:  batch,
		JournalWindow: window,
		Tech:          th,
		Char:          ch,
		Model:         model,
		Obs:           obs.New(),
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sortedIDs returns a sorted copy, for set comparison.
func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

// TestGroupCommitReplayEquivalence admits the same job population under
// every tuning — half through HTTP-style server-assigned ids, half
// through fleet-style caller-assigned ids, concurrently within each
// phase so batches actually form — then kill -9s the server and checks
// both recovery paths see the identical admitted-job set the per-line
// baseline yields: restart replay (New on the same spool) and fleet
// journal stealing (ReadJournalJobs on the fenced spool). The two
// phases run in sequence because server-assigned ids continue from the
// highest id seen: racing them against the caller-assigned batch would
// make the id *values* (not the durability outcome) schedule-dependent,
// and this test compares sets across tunings.
func TestGroupCommitReplayEquivalence(t *testing.T) {
	spec := jobBody(t, nil)
	var baseline []string
	for _, tun := range groupTunings {
		t.Run(tun.name, func(t *testing.T) {
			spool := t.TempDir()
			s := newTunedServer(t, spool, tun.batch, tun.window)

			const assigned, anon = 6, 6
			acked := make([]string, assigned+anon)
			var wg sync.WaitGroup
			for i := 0; i < anon; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, err := s.admitValidated(context.Background(), "", spec, mustReq(t, spec), nil)
					if err != nil {
						t.Errorf("anonymous admit %d: %v", i, err)
						return
					}
					acked[assigned+i] = st.ID
				}(i)
			}
			wg.Wait()
			for i := 0; i < assigned; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					id := JobID(100 + i)
					st, err := s.Admit(context.Background(), id, spec)
					if err != nil {
						t.Errorf("admit %s: %v", id, err)
						return
					}
					acked[i] = st.ID
				}(i)
			}
			wg.Wait()
			s.Crash() // fence; from here the spool is quiescent

			want := sortedIDs(acked)

			// Recovery path 1: a restarted daemon replays the journal.
			heir := newTunedServer(t, spool, 1, 0)
			if got := sortedIDs(heir.JobIDs()); !equalStrings(got, want) {
				t.Errorf("restart replay diverged from acked set\ngot:  %v\nwant: %v", got, want)
			}
			heir.Crash()

			// Recovery path 2: a fleet peer reads the fenced journal to
			// decide what to steal.
			jobs, err := ReadJournalJobs(spool)
			if err != nil {
				t.Fatal(err)
			}
			var stealView []string
			for _, j := range jobs {
				stealView = append(stealView, j.ID)
			}
			if got := sortedIDs(stealView); !equalStrings(got, want) {
				t.Errorf("steal view diverged from acked set\ngot:  %v\nwant: %v", got, want)
			}

			// Every tuning must agree with the per-line baseline (the
			// sweep runs batch=1 first).
			if baseline == nil {
				baseline = want
			} else if !equalStrings(want, baseline) {
				t.Errorf("admitted set diverged from batch=1 baseline\ngot:  %v\nwant: %v", want, baseline)
			}

			// The fsync ledger must be coherent: every admitted line was
			// flushed, and fsyncs never exceed lines.
			snap := s.Metrics()
			fsyncs := snap.Counters["serve.journal.fsyncs"]
			lines := snap.Counters["serve.journal.flushed_lines"]
			if lines != int64(assigned+anon) {
				t.Errorf("flushed_lines = %d, want %d", lines, assigned+anon)
			}
			if fsyncs <= 0 || fsyncs > lines {
				t.Errorf("fsyncs = %d out of range (0, %d]", fsyncs, lines)
			}
			if tun.batch == 1 && fsyncs != lines {
				t.Errorf("batch=1 fsyncs = %d, want %d (per-line discipline)", fsyncs, lines)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGroupCommitCrashMidBatchNeverLosesAcked crashes a group flush at
// each batch boundary while concurrent admissions are in flight, then
// restarts and checks the at-least-once ledger: every acknowledged job
// replays; every replayed job was at least submitted (a crash between
// write and fsync-ack may surface an unacked job — allowed — but never a
// fabricated one).
func TestGroupCommitCrashMidBatchNeverLosesAcked(t *testing.T) {
	spec := jobBody(t, nil)
	for _, at := range []int{1, 2, 3} { // flush 1's three boundaries
		t.Run(fmt.Sprintf("boundary=%d", at), func(t *testing.T) {
			spool := t.TempDir()
			th, ch, model, _ := fixtures(t)
			inj := faults.New(int64(at)).Arm(faults.JournalGroupFlush, faults.Spec{At: []int{at}})
			s, err := New(Config{
				SpoolDir:      spool,
				QueueDepth:    64,
				JournalBatch:  4,
				JournalWindow: 2 * time.Millisecond,
				Tech:          th, Char: ch, Model: model,
				Obs:    obs.New(),
				Faults: inj,
				Logf:   t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}

			const N = 8
			ackedCh := make(chan string, N)
			submitted := map[string]bool{}
			var wg sync.WaitGroup
			for i := 0; i < N; i++ {
				id := JobID(200 + i)
				submitted[id] = true
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					if st, err := s.Admit(context.Background(), id, spec); err == nil {
						ackedCh <- st.ID
					}
				}(id)
			}
			wg.Wait()
			close(ackedCh)
			acked := map[string]bool{}
			for id := range ackedCh {
				acked[id] = true
			}
			if inj.Fired(faults.JournalGroupFlush) == 0 {
				t.Fatal("crash hook never fired; the test exercised nothing")
			}
			if len(acked) == N {
				t.Fatal("every admission was acked across an injected flush crash")
			}
			s.Crash()

			heir := newTunedServer(t, spool, 1, 0)
			defer heir.Crash()
			replayed := map[string]bool{}
			for _, id := range heir.JobIDs() {
				replayed[id] = true
			}
			for id := range acked {
				if !replayed[id] {
					t.Errorf("ACKED job %s lost across crash+replay", id)
				}
			}
			for id := range replayed {
				if !submitted[id] {
					t.Errorf("replayed job %s was never submitted (journal corruption)", id)
				}
			}
		})
	}
}

// TestGroupCommitStealAfterFlushCrash runs the fleet-side recovery over
// a journal whose appender died mid-batch: MarkStolen must heal the torn
// tail, append its steal records, and a reduction afterwards must agree
// with the pre-steal admitted set plus the theft.
func TestGroupCommitStealAfterFlushCrash(t *testing.T) {
	spec := jobBody(t, nil)
	spool := t.TempDir()
	th, ch, model, _ := fixtures(t)
	// Crash the second flush mid-write: flush 1 (boundaries 1-3) commits,
	// flush 2 dies at its mid-write point (call 5), leaving a torn tail.
	inj := faults.New(1).Arm(faults.JournalGroupFlush, faults.Spec{At: []int{5}})
	s, err := New(Config{
		SpoolDir:     spool,
		QueueDepth:   64,
		JournalBatch: 1,
		Tech:         th, Char: ch, Model: model,
		Obs:    obs.New(),
		Faults: inj,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(context.Background(), "j000301", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(context.Background(), "j000302", spec); err == nil {
		t.Fatal("second admit survived an injected mid-write flush crash")
	}
	s.Crash()

	if err := MarkStolen(context.Background(), spool, "r7", []string{"j000301"}); err != nil {
		t.Fatalf("MarkStolen over a torn journal: %v", err)
	}
	jobs, err := ReadJournalJobs(spool)
	if err != nil {
		t.Fatal(err)
	}
	// The acked job must be there, stolen. The unacked one may have been
	// torn away or may survive whole (a crash between write and ack), but
	// nothing else may appear.
	found := false
	for _, j := range jobs {
		switch j.ID {
		case "j000301":
			found = true
			if !j.Stolen || j.Thief != "r7" {
				t.Errorf("j000301 not stolen by r7: %+v", j)
			}
		case "j000302":
		default:
			t.Errorf("fabricated job %s in post-steal journal", j.ID)
		}
	}
	if !found {
		t.Error("acked job j000301 missing from post-steal journal")
	}
}
