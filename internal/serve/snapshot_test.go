package serve

// Storage-fault torture tests for the snapshot+compaction swap, the
// scrub/quarantine pipeline, and journal replay at scale: crash at every
// swap boundary, the deterministic disk-fault matrix (disk-full,
// fsync-error, read-corrupt, rename-torn), and the oversized-record
// replay regression. Every test audits the recovered admitted set
// against the pre-fault fold — byte-identical recovery or a typed
// resilience.ErrStorage, never silent loss.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/faults"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
)

// frameLine checksums one record into a journal line (with newline).
func frameLine(t *testing.T, rec record) []byte {
	t.Helper()
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := atomicio.EncodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return append(frame, '\n')
}

// unframedLine marshals one record as a bare JSON line without the
// checksum envelope, which the scrub must treat as corrupt.
func unframedLine(t *testing.T, rec record) []byte {
	t.Helper()
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// writeJournalLines writes raw lines as dir's journal.
func writeJournalLines(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// auditSet canonicalizes a folded ledger for admitted-set comparison:
// one line per job, in submission order, covering every field recovery
// must preserve.
func auditSet(entries []*ledgerEntry) string {
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "%s state=%s attempts=%d class=%s err=%s degraded=%v stolen=%v thief=%s spec=%s\n",
			e.id, e.state, e.attempts, e.class, e.errMsg, e.degraded, e.stolen, e.thief, string(e.spec))
	}
	return sb.String()
}

// tortureRecords is a journal exercising every record kind: a finished
// job, a suspended-then-stolen job, a still-queued job, and a duplicate
// submit that must lose.
func tortureRecords() []record {
	spec := func(i int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"flow":"local","pairs":%d}`, 40+i))
	}
	return []record{
		{Seq: 1, Kind: recSubmit, Job: "j1", Spec: spec(1)},
		{Seq: 2, Kind: recSubmit, Job: "j2", Spec: spec(2)},
		{Seq: 3, Kind: recStart, Job: "j1"},
		{Seq: 4, Kind: recStart, Job: "j2"},
		{Seq: 5, Kind: recFinish, Job: "j1", State: StateDone},
		{Seq: 6, Kind: recSuspend, Job: "j2", Degraded: true, Faults: map[string]int{"worker-panic": 1}},
		{Seq: 7, Kind: recSubmit, Job: "j1", Spec: spec(99)}, // duplicate: first spec must win
		{Seq: 8, Kind: recSteal, Job: "j2", Thief: "r1"},
		{Seq: 9, Kind: recSubmit, Job: "j3", Spec: spec(3)},
	}
}

// seedSpool writes the torture journal into a fresh spool dir and returns
// the dir and the reference audit of its fold.
func seedSpool(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	var lines [][]byte
	for _, rec := range tortureRecords() {
		lines = append(lines, frameLine(t, rec))
	}
	writeJournalLines(t, dir, lines...)
	st, err := loadSpool(atomicio.OS, dir, false)
	if err != nil {
		t.Fatalf("reference load: %v", err)
	}
	return dir, auditSet(st.entries)
}

// TestCompactionRoundTrip compacts a spool and checks the fold, seq, and
// gen survive, appends post-compaction records over the snapshot, and
// compacts again — generations and sequence numbers stay monotonic.
func TestCompactionRoundTrip(t *testing.T) {
	t.Run("framed", func(t *testing.T) {
		dir, want := seedSpool(t)
		if err := compactSpool(atomicio.OS, dir, nil); err != nil {
			t.Fatalf("compact: %v", err)
		}
		st, err := loadSpool(atomicio.OS, dir, false)
		if err != nil {
			t.Fatalf("load after compact: %v", err)
		}
		if got := auditSet(st.entries); got != want {
			t.Fatalf("admitted set changed across compaction:\nwant:\n%s\ngot:\n%s", want, got)
		}
		if st.gen != 1 || st.seq != 9 {
			t.Fatalf("after compact: gen=%d seq=%d, want gen=1 seq=9", st.gen, st.seq)
		}
		// The journal is now just a genesis record; the snapshot holds
		// the jobs.
		if st.scrub.records != 0 {
			t.Fatalf("journal still carries %d records after compaction", st.scrub.records)
		}

		// Append over the snapshot (seq continues past the high-water
		// mark) and compact again.
		f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		tail := []record{
			{Seq: 10, Kind: recStart, Job: "j3"},
			{Seq: 11, Kind: recFinish, Job: "j3", State: StateFailed, Class: "fault"},
		}
		for _, rec := range tail {
			if _, err := f.Write(frameLine(t, rec)); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		if err := compactSpool(atomicio.OS, dir, nil); err != nil {
			t.Fatalf("second compact: %v", err)
		}
		st2, err := loadSpool(atomicio.OS, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if st2.gen != 2 || st2.seq != 11 {
			t.Fatalf("after second compact: gen=%d seq=%d, want gen=2 seq=11", st2.gen, st2.seq)
		}
		byID := map[string]*ledgerEntry{}
		for _, e := range st2.entries {
			byID[e.id] = e
		}
		if e := byID["j3"]; e == nil || e.state != StateFailed || e.attempts != 1 {
			t.Fatalf("j3 after tail fold = %+v, want failed with 1 attempt", e)
		}
	})
}

// TestCompactionCrashAtEveryBoundary kills the swap at each of its four
// boundaries and audits that a restart (loadSpool with repair) recovers
// the exact pre-compaction admitted set, then that a re-run compaction
// completes cleanly. This is the heart of the durability claim: there is
// no instant during the swap at which a crash loses an acknowledged
// record.
func TestCompactionCrashAtEveryBoundary(t *testing.T) {
	t.Run("framed", func(t *testing.T) {
		for bi, boundary := range compactBoundaries {
			t.Run(boundary, func(t *testing.T) {
				dir, want := seedSpool(t)
				calls := 0
				crash := func(string) bool {
					calls++
					return calls == bi+1
				}
				if err := compactSpool(atomicio.OS, dir, crash); !errors.Is(err, errCompactCrashed) {
					t.Fatalf("compactSpool = %v, want injected crash", err)
				}

				// Restart over whatever the crash left behind.
				st, err := loadSpool(atomicio.OS, dir, true)
				if err != nil {
					t.Fatalf("recovery load: %v", err)
				}
				if got := auditSet(st.entries); got != want {
					t.Fatalf("admitted set diverged after crash at %s:\nwant:\n%s\ngot:\n%s", boundary, want, got)
				}
				if st.seq != 9 {
					t.Fatalf("seq after recovery = %d, want 9", st.seq)
				}
				// A crash after the snapshot rename but before the journal
				// rename leaves a stale journal; the scrub must have healed it.
				if boundary == compactSnapRenamed && !st.scrub.staleHealed {
					t.Fatalf("crash at %s: stale journal not healed: %+v", boundary, st.scrub)
				}

				// A second load is clean (repair converged), and a re-run
				// compaction completes.
				st2, err := loadSpool(atomicio.OS, dir, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := auditSet(st2.entries); got != want {
					t.Fatalf("repair did not converge at %s", boundary)
				}
				if err := compactSpool(atomicio.OS, dir, nil); err != nil {
					t.Fatalf("re-run compaction: %v", err)
				}
				st3, err := loadSpool(atomicio.OS, dir, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := auditSet(st3.entries); got != want {
					t.Fatalf("admitted set diverged after re-run compaction at %s", boundary)
				}
			})
		}
	})
}

// TestCompactionDiskFaultMatrix drives the swap and the restart through
// a faulting filesystem — disk-full, fsync-error, rename-torn on the
// write path; read-corrupt on the recovery path — and checks the
// documented degradation: the operation fails with a typed
// resilience.ErrStorage (or reports the damage), and the durable state
// on disk still folds to the identical admitted set.
func TestCompactionDiskFaultMatrix(t *testing.T) {
	writeFaults := []string{atomicio.FaultDiskFull, atomicio.FaultFsyncError, atomicio.FaultRenameTorn}
	for _, fault := range writeFaults {
		t.Run("compact/"+fault, func(t *testing.T) {
			dir, want := seedSpool(t)
			inj, err := faults.Parse(fault+":at=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			fsys := atomicio.WithFaults(atomicio.OS, inj.Fire)
			err = compactSpool(fsys, dir, nil)
			if err == nil {
				t.Fatalf("compactSpool survived %s", fault)
			}
			if !errors.Is(err, resilience.ErrStorage) {
				t.Fatalf("compactSpool error %v is not typed resilience.ErrStorage", err)
			}
			// The failed swap left no half-state a plain load trips over:
			// the fold over the real filesystem is unchanged.
			st, lerr := loadSpool(atomicio.OS, dir, true)
			if lerr != nil {
				t.Fatalf("load after %s: %v", fault, lerr)
			}
			if got := auditSet(st.entries); got != want {
				t.Fatalf("admitted set diverged after %s:\nwant:\n%s\ngot:\n%s", fault, want, got)
			}
			// And with the fault disarmed the compaction goes through.
			if err := compactSpool(atomicio.OS, dir, nil); err != nil {
				t.Fatalf("retry compaction: %v", err)
			}
			st2, err := loadSpool(atomicio.OS, dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := auditSet(st2.entries); got != want {
				t.Fatalf("admitted set diverged after retry compaction")
			}
		})
	}

	t.Run("restart/read-corrupt", func(t *testing.T) {
		dir, want := seedSpool(t)
		inj, err := faults.Parse(atomicio.FaultReadCorrupt+":at=1", 1)
		if err != nil {
			t.Fatal(err)
		}
		fsys := atomicio.WithFaults(atomicio.OS, inj.Fire)
		// A transient read corruption is detected — the checksum rejects
		// the flipped bit — and, crucially, read-only: the bytes on disk
		// were never touched, so the next (clean) read folds identically.
		st, err := loadSpool(fsys, dir, false)
		if err != nil {
			if !errors.Is(err, resilience.ErrStorage) {
				t.Fatalf("corrupt read error %v is not typed resilience.ErrStorage", err)
			}
		} else if auditSet(st.entries) == want && st.scrub.quarantined == 0 && !st.scrub.tornHealed {
			t.Fatalf("read corruption went entirely undetected")
		}
		st2, err := loadSpool(atomicio.OS, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := auditSet(st2.entries); got != want {
			t.Fatalf("disk state damaged by a read fault:\nwant:\n%s\ngot:\n%s", want, got)
		}
	})
}

// damagedJournal returns the torture journal, framed, with line i
// damaged: "checksum" flips a payload byte, "unframed" writes the record
// as a bare JSON line.
func damagedJournal(t *testing.T, i int, damage string) [][]byte {
	t.Helper()
	recs := tortureRecords()
	var lines [][]byte
	for _, rec := range recs {
		lines = append(lines, frameLine(t, rec))
	}
	switch damage {
	case "checksum":
		lines[i][len(lines[i])/2] ^= 0x40
	case "unframed":
		lines[i] = unframedLine(t, recs[i])
	default:
		t.Fatalf("unknown damage %q", damage)
	}
	return lines
}

// TestScrubQuarantinesRot corrupts a mid-journal line (rot, not a tear:
// durable lines follow it) — by a checksum mismatch, or by the frame
// missing altogether — and checks the scrub moves it to the quarantine
// file, rewrites the journal without it byte-identically, and converges —
// a second load finds nothing to fix.
func TestScrubQuarantinesRot(t *testing.T) {
	for _, damage := range []string{"checksum", "unframed"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			// Damage line 4 (recStart j2).
			lines := damagedJournal(t, 3, damage)
			writeJournalLines(t, dir, lines...)

			st, err := loadSpool(atomicio.OS, dir, true)
			if err != nil {
				t.Fatalf("scrub load: %v", err)
			}
			if st.scrub.quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1 (%+v)", st.scrub.quarantined, st.scrub)
			}
			// j2 lost its start record (1 fewer attempt) but everything
			// else — including records after the rot — survived.
			byID := map[string]*ledgerEntry{}
			for _, e := range st.entries {
				byID[e.id] = e
			}
			if e := byID["j2"]; e == nil || e.attempts != 0 || !e.stolen {
				t.Fatalf("j2 after quarantine = %+v, want 0 attempts, stolen", e)
			}
			if e := byID["j3"]; e == nil {
				t.Fatal("j3 (submitted after the rotted line) lost")
			}

			// The corrupt line is preserved for forensics.
			qb, err := os.ReadFile(filepath.Join(dir, quarantineName))
			if err != nil {
				t.Fatalf("quarantine file: %v", err)
			}
			if !strings.Contains(string(qb), strings.TrimSuffix(string(lines[3]), "\n")) {
				t.Fatal("quarantine file does not hold the corrupt line verbatim")
			}

			// Scrub converged: the rewritten journal is clean and
			// fold-stable.
			st2, err := loadSpool(atomicio.OS, dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if st2.scrub.quarantined != 0 || st2.scrub.tornHealed {
				t.Fatalf("second load still reports damage: %+v", st2.scrub)
			}
			if auditSet(st2.entries) != auditSet(st.entries) {
				t.Fatal("fold changed between scrub and post-scrub load")
			}
		})
	}
}

// TestScrubHealsCorruptTail corrupts the FINAL line — indistinguishable
// from a torn write at the moment of a crash — and checks it is dropped
// (healed), not quarantined.
func TestScrubHealsCorruptTail(t *testing.T) {
	for _, damage := range []string{"checksum", "unframed"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			writeJournalLines(t, dir, damagedJournal(t, len(tortureRecords())-1, damage)...)

			st, err := loadSpool(atomicio.OS, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			if !st.scrub.tornHealed || st.scrub.quarantined != 0 {
				t.Fatalf("corrupt tail handled as %+v, want tornHealed and nothing quarantined", st.scrub)
			}
			for _, e := range st.entries {
				if e.id == "j3" {
					t.Fatal("the dropped tail record still folded in")
				}
			}
			if st.seq != 8 {
				t.Fatalf("seq = %d, want 8 after dropping the seq-9 tail", st.seq)
			}
		})
	}
}

// TestCorruptSnapshotFailsTyped flips a byte in the snapshot — whose
// records exist nowhere else — and checks the load refuses with a typed
// resilience.ErrStorage instead of fabricating a smaller admitted set.
func TestCorruptSnapshotFailsTyped(t *testing.T) {
	dir, _ := seedSpool(t)
	if err := compactSpool(atomicio.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadSpool(atomicio.OS, dir, true)
	if err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	if !errors.Is(err, resilience.ErrStorage) {
		t.Fatalf("corrupt snapshot error %v is not typed resilience.ErrStorage", err)
	}
}

// TestOversizedRecordReplay is the regression test for the scanner
// token-limit bug: a journal line far past bufio.Scanner's 64KiB default
// must replay and survive a restart. The old Scanner-based replay
// silently dropped the job.
func TestOversizedRecordReplay(t *testing.T) {
	pad := strings.Repeat("x", 256<<10) // 4x the default Scanner token limit
	spec := json.RawMessage(fmt.Sprintf(`{"flow":"local","pairs":40,"pad":%q}`, pad))
	t.Run("framed", func(t *testing.T) {
		dir := t.TempDir()
		recs := []record{
			{Seq: 1, Kind: recSubmit, Job: "jbig", Spec: spec},
			{Seq: 2, Kind: recStart, Job: "jbig"},
			{Seq: 3, Kind: recFinish, Job: "jbig", State: StateDone},
		}
		var lines [][]byte
		for _, rec := range recs {
			lines = append(lines, frameLine(t, rec))
		}
		writeJournalLines(t, dir, lines...)

		st, err := loadSpool(atomicio.OS, dir, false)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if len(st.entries) != 1 || st.entries[0].id != "jbig" || st.entries[0].state != StateDone {
			t.Fatalf("oversized record did not replay: %d entries", len(st.entries))
		}
		if len(st.entries[0].spec) != len(spec) {
			t.Fatalf("spec truncated: %d bytes, want %d", len(st.entries[0].spec), len(spec))
		}

		// And through a compaction: the oversized spec round-trips the
		// snapshot too.
		if err := compactSpool(atomicio.OS, dir, nil); err != nil {
			t.Fatalf("compact: %v", err)
		}
		jj, err := ReadJournalJobs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(jj) != 1 || jj[0].ID != "jbig" || !jj[0].Terminal || len(jj[0].Spec) != len(spec) {
			t.Fatalf("oversized spec lost across compaction: %+v", jj)
		}
	})
}

// TestStealFromCompactedVictim fences nothing and runs the pure spool
// protocol: compact a victim, steal from the snapshot-backed spool, and
// check the steal is durable across a further compaction — the exact
// sequence the fleet runs against a dead replica that had compacted.
func TestStealFromCompactedVictim(t *testing.T) {
	dir, _ := seedSpool(t)
	if err := compactSpool(atomicio.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	// j3 is the one live (non-terminal, unstolen) job in the torture set.
	if err := MarkStolen(context.Background(), dir, "r9", []string{"j3"}); err != nil {
		t.Fatalf("MarkStolen over compacted spool: %v", err)
	}
	jj, err := ReadJournalJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	stolen := map[string]string{}
	for _, j := range jj {
		if j.Stolen {
			stolen[j.ID] = j.Thief
		}
	}
	if stolen["j3"] != "r9" {
		t.Fatalf("steal did not land over the snapshot base: %v", stolen)
	}
	if stolen["j2"] != "r1" {
		t.Fatalf("pre-compaction steal lost from snapshot: %v", stolen)
	}

	// The steal record survives being folded into the next snapshot.
	if err := compactSpool(atomicio.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	jj2, err := ReadJournalJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jj2 {
		if j.ID == "j3" && (!j.Stolen || j.Thief != "r9") {
			t.Fatalf("steal lost across compaction: %+v", j)
		}
	}
}

// TestStealFromCrashedSwapVictim kills the victim's compaction between
// the two renames (stale journal on disk) and checks MarkStolen's
// repair-first load heals the spool before appending the steal — the
// coordinator never writes into a half-swapped journal.
func TestStealFromCrashedSwapVictim(t *testing.T) {
	dir, _ := seedSpool(t)
	calls := 0
	crash := func(string) bool { calls++; return calls == 2 } // snapshot-renamed
	if err := compactSpool(atomicio.OS, dir, crash); !errors.Is(err, errCompactCrashed) {
		t.Fatalf("compactSpool = %v, want injected crash", err)
	}
	if err := MarkStolen(context.Background(), dir, "r9", []string{"j3"}); err != nil {
		t.Fatalf("MarkStolen over half-swapped spool: %v", err)
	}
	jj, err := ReadJournalJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jj {
		if j.ID == "j3" {
			found = true
			if !j.Stolen || j.Thief != "r9" {
				t.Fatalf("steal did not land after swap-crash heal: %+v", j)
			}
		}
	}
	if !found {
		t.Fatal("j3 lost from half-swapped spool")
	}
}

// TestLiveCompactionRestart runs a real server with an aggressive
// compaction threshold, lets it compact while serving, drains, and
// restarts: every admitted job is still there with its terminal state,
// and the journal stayed bounded (snapshot present, short tail).
func TestLiveCompactionRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	spool := t.TempDir()
	s, url := testServer(t, spool, func(c *Config) { c.CompactEvery = 4 })

	var ids []string
	for i := 0; i < 5; i++ {
		code, m, _ := post(t, url, jobBody(t, nil))
		if code != 202 {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, m["id"])
	}
	for _, id := range ids {
		if st := waitState(t, url, id, StateDone, StateFailed, StateCanceled); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	s.Drain()

	if s.cfg.Obs.Snapshot().Counters["serve.journal.compactions"] == 0 {
		t.Fatal("no compaction ran despite CompactEvery=4 and 15 records")
	}
	if _, err := os.Stat(filepath.Join(spool, snapshotName)); err != nil {
		t.Fatalf("no snapshot on disk after live compaction: %v", err)
	}

	// Restart over the compacted spool: all five jobs, all done, exactly
	// one attempt each.
	s2, err := New(Config{
		SpoolDir: spool, Workers: 1, QueueDepth: 4,
		JobTimeout: time.Minute, DrainTimeout: 5 * time.Second,
		Tech: s.cfg.Tech, Char: s.cfg.Char, Model: s.cfg.Model,
		Obs: obs.New(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("restart over compacted spool: %v", err)
	}
	defer s2.Drain()
	got := s2.JobIDs()
	if len(got) != len(ids) {
		t.Fatalf("restart sees %d jobs, want %d", len(got), len(ids))
	}
	jj, err := ReadJournalJobs(spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jj {
		if j.State != StateDone || j.Status.Attempts != 1 {
			t.Fatalf("job %s after restart: state=%s attempts=%d, want done/1", j.ID, j.State, j.Status.Attempts)
		}
	}
}

// TestLiveCompactCrashRestart arms the compact-crash hook so the live
// server dies mid-swap (boundary 2: snapshot renamed, journal stale),
// then restarts over the spool and audits that every acknowledged job
// is recovered and runs to completion.
func TestLiveCompactCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	th, ch, model, _ := fixtures(t)
	spool := t.TempDir()
	inj, err := faults.Parse("compact-crash:at=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SpoolDir: spool, Workers: 1, QueueDepth: 8,
		JobTimeout: time.Minute, DrainTimeout: 5 * time.Second,
		CompactEvery: 3, Faults: inj,
		Tech: th, Char: ch, Model: model,
		Obs: obs.New(), Logf: t.Logf,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StartWorkers()

	_, _, _, design := fixtures(t)
	spec, _ := json.Marshal(&JobRequest{Design: design, Flow: "local", Pairs: 40, Iters: 2})
	var acked []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("jc%d", i)
		if _, err := s.Admit(context.Background(), id, spec); err != nil {
			break // the injected crash may land while we are still admitting
		}
		acked = append(acked, id)
	}
	if len(acked) < 3 {
		t.Fatalf("only %d jobs acked before the crash, want >= 3 to cross CompactEvery", len(acked))
	}

	// Wait for the injected mid-swap crash (worker-triggered compaction).
	deadline := time.Now().Add(60 * time.Second)
	for s.Ready() || s.Stats().Running > 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never hit the injected compaction crash")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Crash() // fence the wreck, as the fleet would

	// Restart over the half-swapped spool: every acked job must be there.
	cfg2 := cfg
	cfg2.Faults = nil
	cfg2.Obs = obs.New()
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("restart over crashed swap: %v", err)
	}
	recovered := map[string]bool{}
	for _, id := range s2.JobIDs() {
		recovered[id] = true
	}
	for _, id := range acked {
		if !recovered[id] {
			t.Fatalf("acked job %s lost across the compaction crash (recovered %v)", id, s2.JobIDs())
		}
	}
	s2.StartWorkers()
	defer s2.Drain()
	deadline = time.Now().Add(120 * time.Second)
	for {
		st := s2.Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered jobs did not settle: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	jj, err := ReadJournalJobs(spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		ok := false
		for _, j := range jj {
			if j.ID == id && j.Terminal {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("acked job %s not terminal after recovery", id)
		}
	}
}

// TestSpoolCLIRoundTrip exercises the exported Inspect/Verify/Repair/
// Compact surface cmd/skewjournal is built on, against a damaged spool.
func TestSpoolCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := tortureRecords()
	var lines [][]byte
	for _, rec := range recs {
		lines = append(lines, frameLine(t, rec))
	}
	lines[3][len(lines[3])/2] ^= 0x40 // rot a mid-journal line
	writeJournalLines(t, dir, lines...)

	// Verify is read-only: it reports the damage without touching disk.
	before, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifySpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("verify report = %+v, want 1 quarantined", rep)
	}
	after, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("VerifySpool mutated the journal")
	}

	// Repair fixes it; a second verify is clean.
	if _, err := RepairSpool(dir); err != nil {
		t.Fatal(err)
	}
	rep2, err := VerifySpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined != 0 || rep2.TornHealed || rep2.StaleHealed {
		t.Fatalf("spool still damaged after repair: %+v", rep2)
	}

	// Compact, then inspect: generation advanced, jobs preserved.
	if _, err := CompactSpool(dir); err != nil {
		t.Fatal(err)
	}
	rep3, jobs, err := InspectSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Gen != 1 || rep3.Jobs != 3 || len(jobs) != 3 {
		t.Fatalf("inspect after compact = %+v (%d jobs), want gen 1 with 3 jobs", rep3, len(jobs))
	}
}
