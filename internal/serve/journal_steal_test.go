package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"skewvar/internal/edaio/atomicio"
)

// These tests pin the journal-replay hardening the fleet's work
// stealing depends on: reduction must be idempotent under every
// corruption a crash-then-steal pipeline can produce — duplicated
// submits, duplicated tails, torn final lines, steal records repeated
// or interleaved anywhere after their submit.

// genJournal builds a random but well-formed record sequence over a few
// jobs: submit, then optional start/finish/suspend/steal progressions.
func genJournal(rng *rand.Rand) []record {
	var recs []record
	n := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		spec := json.RawMessage(fmt.Sprintf(`{"flow":"local","pairs":%d}`, 10+i))
		recs = append(recs, record{Kind: recSubmit, Job: id, Spec: spec})
		switch rng.Intn(5) {
		case 0: // still queued
		case 1: // running at crash time
			recs = append(recs, record{Kind: recStart, Job: id})
		case 2: // finished
			recs = append(recs, record{Kind: recStart, Job: id})
			recs = append(recs, record{Kind: recFinish, Job: id, State: StateDone})
		case 3: // suspended by a drain
			recs = append(recs, record{Kind: recStart, Job: id})
			recs = append(recs, record{Kind: recSuspend, Job: id})
		case 4: // stolen by a peer after the fence
			recs = append(recs, record{Kind: recStart, Job: id})
			recs = append(recs, record{Kind: recSteal, Job: id, Thief: "r9"})
		}
	}
	// Shuffle only across jobs, preserving each job's own record order,
	// by stable-picking from per-job queues — journals interleave jobs
	// but never reorder one job's records.
	return interleave(rng, recs)
}

func interleave(rng *rand.Rand, recs []record) []record {
	byJob := map[string][]record{}
	var ids []string
	for _, r := range recs {
		if _, ok := byJob[r.Job]; !ok {
			ids = append(ids, r.Job)
		}
		byJob[r.Job] = append(byJob[r.Job], r)
	}
	var out []record
	for len(out) < len(recs) {
		id := ids[rng.Intn(len(ids))]
		if q := byJob[id]; len(q) > 0 {
			out = append(out, q[0])
			byJob[id] = q[1:]
		}
	}
	return out
}

func writeJournalFile(t *testing.T, dir string, recs []record, tornTail []byte, dupTail int) string {
	t.Helper()
	path := filepath.Join(dir, journalName)
	var lines [][]byte
	for i, r := range recs {
		r.Seq = i + 1
		lines = append(lines, frameLine(t, r))
	}
	// Duplicate the last dupTail full lines — what a crashed copy/retry
	// can leave behind.
	n := len(lines)
	for i := n - dupTail; i < n; i++ {
		if i >= 0 {
			lines = append(lines, lines[i])
		}
	}
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
	}
	buf = append(buf, tornTail...) // torn partial line, no newline
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func entriesSummary(es []*ledgerEntry) []string {
	var out []string
	// Attempts are deliberately excluded: a duplicated tail re-applies
	// start records and drifts the (informational) attempt count; every
	// decision-bearing field must be corruption-invariant.
	for _, e := range es {
		out = append(out, fmt.Sprintf("%s|%s|stolen=%v|thief=%s|spec=%s",
			e.id, e.state, e.stolen, e.thief, e.spec))
	}
	return out
}

// TestJournalReduceProperty writes 200 seeded random journals as framed
// lines, each in four corrupted variants, recovers every one through
// loadSpool — the path a restart or a steal runs — and checks the
// invariants the steal protocol relies on.
func TestJournalReduceProperty(t *testing.T) {
	// A crash mid-append tears the final frame: half its bytes, no newline.
	torn := func(seq int) []byte {
		f := frameLine(t, record{Seq: seq, Kind: recFinish, Job: "j000001", State: StateDone})
		return f[:len(f)/2]
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := genJournal(rng)
		clean := foldRecords(nil, recs, 0)

		dir := t.TempDir()
		variants := []struct {
			name    string
			torn    []byte
			dupTail int
		}{
			{"clean", nil, 0},
			{"torn-tail", torn(999), 0},
			{"dup-tail", nil, 1 + rng.Intn(3)},
			{"dup-and-torn", torn(1000), 1 + rng.Intn(len(recs))},
		}
		for _, v := range variants {
			path := writeJournalFile(t, dir, recs, v.torn, v.dupTail)
			st, err := loadSpool(atomicio.OS, dir, false)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			if st.scrub.quarantined != 0 || st.scrub.records < len(recs) {
				t.Fatalf("seed %d %s: recovered %d records (%d quarantined), want at least %d",
					seed, v.name, st.scrub.records, st.scrub.quarantined, len(recs))
			}
			reduced := st.entries

			// Invariant 1: corruption never changes the reduction — a
			// duplicated tail re-applies last-wins records, a torn line
			// is ignored.
			if !reflect.DeepEqual(entriesSummary(reduced), entriesSummary(clean)) {
				t.Fatalf("seed %d %s: reduction diverged\nclean: %v\ngot:   %v",
					seed, v.name, entriesSummary(clean), entriesSummary(reduced))
			}

			// Invariant 2: every id exactly once.
			seen := map[string]int{}
			for _, e := range reduced {
				seen[e.id]++
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("seed %d %s: job %s reduced to %d entries", seed, v.name, id, n)
				}
			}

			// Invariant 3: stolen jobs carry their thief; terminal jobs
			// are not simultaneously pending.
			for _, e := range reduced {
				if e.stolen && e.thief == "" {
					t.Fatalf("seed %d %s: job %s stolen without a thief", seed, v.name, e.id)
				}
			}
			os.Remove(path)
		}
	}
}

// TestJournalDuplicateSubmitFirstSpecWins pins the dedup rule directly:
// a duplicated submit with a different spec must not replace the
// original (the first admission is the one a 202 was issued for).
func TestJournalDuplicateSubmitFirstSpecWins(t *testing.T) {
	recs := []record{
		{Kind: recSubmit, Job: "j000001", Spec: json.RawMessage(`{"pairs":1}`)},
		{Kind: recSubmit, Job: "j000001", Spec: json.RawMessage(`{"pairs":2}`)},
	}
	es := foldRecords(nil, recs, 0)
	if len(es) != 1 {
		t.Fatalf("got %d entries, want 1", len(es))
	}
	if string(es[0].spec) != `{"pairs":1}` {
		t.Fatalf("spec = %s, want the first submission's", es[0].spec)
	}
}

// TestMarkStolenIdempotentAndReplay checks the full steal round trip on
// a real spool: marking twice appends harmlessly, ReadJournalJobs
// reports the theft, and a restarted server refuses to resurrect the
// stolen job.
func TestMarkStolenIdempotentAndReplay(t *testing.T) {
	spool := t.TempDir()
	s, _ := testServer(t, spool, nil)
	spec := jobBody(t, nil)
	if _, err := s.Admit(context.Background(), "j000001", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(context.Background(), "j000002", spec); err != nil {
		t.Fatal(err)
	}
	s.Crash() // fence: no appender may be live while a peer marks the journal

	if err := MarkStolen(context.Background(), spool, "r1", []string{"j000001"}); err != nil {
		t.Fatal(err)
	}
	if err := MarkStolen(context.Background(), spool, "r1", []string{"j000001"}); err != nil {
		t.Fatal(err)
	}

	jobs, err := ReadJournalJobs(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d journal jobs, want 2", len(jobs))
	}
	byID := map[string]JournalJob{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if !byID["j000001"].Stolen || byID["j000001"].Thief != "r1" {
		t.Errorf("j000001 not marked stolen by r1: %+v", byID["j000001"])
	}
	if byID["j000002"].Stolen {
		t.Errorf("j000002 wrongly marked stolen: %+v", byID["j000002"])
	}

	// A restarted server on the same spool must resurrect only the
	// not-stolen job.
	heir, _ := testServer(t, spool, nil)
	ids := heir.JobIDs()
	if len(ids) != 1 || ids[0] != "j000002" {
		t.Fatalf("heir replayed %v, want [j000002]", ids)
	}
}

// TestAdmitIdempotent pins programmatic admission: re-admitting a known
// id returns its current status without a second journal submit or a
// second execution.
func TestAdmitIdempotent(t *testing.T) {
	spool := t.TempDir()
	s, _ := testServer(t, spool, nil)
	spec := jobBody(t, nil)
	st1, err := s.Admit(context.Background(), "j000042", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != "j000042" {
		t.Fatalf("admitted id %q", st1.ID)
	}
	// Count submit records, not lines: a worker may journal the job's
	// start between the two admissions.
	submits := func() int {
		lines, _, err := scanJournal(atomicio.OS, spool)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, jl := range lines {
			if jl.ok && jl.rec.Kind == recSubmit && jl.rec.Job == "j000042" {
				n++
			}
		}
		return n
	}
	if n := submits(); n != 1 {
		t.Fatalf("first admit journaled %d submits of j000042, want 1", n)
	}
	st2, err := s.Admit(context.Background(), "j000042", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st1.ID {
		t.Fatalf("second admit returned id %q", st2.ID)
	}
	if n := submits(); n != 1 {
		t.Errorf("idempotent re-admit journaled %d submits of j000042, want 1", n)
	}
	// HTTP-assigned ids must not collide with the fleet-supplied one.
	if _, err := s.admitValidated(context.Background(), "", spec, mustReq(t, spec), nil); err != nil {
		t.Fatal(err)
	}
	ids := s.JobIDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %q in %v", id, ids)
		}
		seen[id] = true
	}
}

func mustReq(t *testing.T, spec []byte) JobRequest {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		t.Fatal(err)
	}
	return req
}
