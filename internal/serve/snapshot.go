package serve

// Snapshot + compaction + scrub for the job journal.
//
// An append-only journal grows without bound: replay time and disk usage
// scale with every job ever admitted, not with the live set. Compaction
// bounds both with a two-file protocol:
//
//	jobs.snapshot   checksum-framed reduced ledger state (one frame per
//	                job) under a header carrying a generation number and
//	                the sequence high-water mark it folded up to
//	jobs.journal    the tail: records appended since the snapshot,
//	                beginning with a "genesis" record naming the
//	                generation and seq it continues from
//
// The swap runs snapshot-first: write+rename the new snapshot (gen G+1),
// then write+rename a fresh genesis journal (gen G+1). Recovery is exact
// at every crash boundary because the fold filters journal records by
// sequence number — a record with Seq <= the snapshot's Seq was already
// folded into it and is skipped, so a stale journal left by a crash
// between the two renames replays to the identical admitted set (its
// records all predate the snapshot) and a fresh journal's tail applies
// exactly once. Sequence numbers are monotonic across compactions and
// never reset.
//
// Scrub policy (startup and `skewjournal repair`): every journal line is
// format-sniffed and, when framed, checksum-verified. A corrupt or
// undecodable final line is truncated away — the torn tail a crash can
// leave, healed exactly as before. A corrupt line with durable lines
// after it cannot be a tear; it is bit rot, so the line is moved to
// jobs.journal.quarantine and the journal is atomically rewritten
// without it: detected, counted, and preserved for forensics rather than
// silently scanner-skipped. A corrupt snapshot is not repairable from
// local state (its records exist nowhere else) and fails the load with a
// typed resilience.ErrStorage — degrade loudly, never fabricate.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/faults"
	"skewvar/internal/resilience"
)

const (
	// journalName is the journal's file name inside the spool directory.
	journalName = "jobs.journal"
	// snapshotName holds the reduced ledger state of every compacted-away
	// journal record.
	snapshotName = "jobs.snapshot"
	// quarantineName collects corrupt journal lines removed by scrub.
	quarantineName = "jobs.journal.quarantine"
)

// Compaction crash boundaries, consulted in order through the
// faults.CompactCrash hook: `compact-crash:at=N` simulates kill -9 at
// the N-th boundary of the swap.
const (
	compactSnapWritten    = "snapshot-written"  // temp snapshot on disk, not yet renamed
	compactSnapRenamed    = "snapshot-renamed"  // snapshot live, journal still the old one
	compactJournalWritten = "journal-written"   // temp genesis journal on disk
	compactJournalRenamed = "journal-renamed"   // swap complete
)

var compactBoundaries = []string{compactSnapWritten, compactSnapRenamed, compactJournalWritten, compactJournalRenamed}

// errCompactCrashed reports a simulated kill -9 at a compaction
// boundary (torture harness only; a real crash just dies).
var errCompactCrashed = errors.New("serve: injected crash at compaction boundary")

// snapHeader is the snapshot's first frame.
type snapHeader struct {
	Version int `json:"version"`
	Gen     int `json:"gen"`  // generation; the paired journal's genesis carries the same
	Seq     int `json:"seq"`  // journal records with Seq <= this are folded in
	Jobs    int `json:"jobs"` // entry frames that must follow
}

// snapEntry is one job's reduced ledger state, one frame per job.
type snapEntry struct {
	ID       string          `json:"id"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts,omitempty"`
	Class    string          `json:"class,omitempty"`
	Error    string          `json:"error,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Faults   map[string]int  `json:"faults,omitempty"`
	Stolen   bool            `json:"stolen,omitempty"`
	Thief    string          `json:"thief,omitempty"`
}

// scrubStats reports what loading a spool found and fixed.
type scrubStats struct {
	records     int  // journal records decoded (excluding genesis)
	framed      int  // journal lines that carried the checksum envelope
	legacy      int  // pre-frame journal lines (format-sniffed)
	quarantined int  // corrupt non-tail lines moved to quarantine
	tornHealed  bool // a torn or corrupt tail line was dropped
	staleHealed bool // a stale mid-swap journal was replaced
}

// spoolState is a spool's recovered durable state: the folded ledger plus
// the bookkeeping the journal continues from.
type spoolState struct {
	entries []*ledgerEntry
	seq     int // sequence high-water mark (snapshot header and records)
	gen     int // current generation
	scrub   scrubStats
}

// journalLine is one scanned journal line paired with its decode verdict.
type journalLine struct {
	raw    []byte
	rec    record
	framed bool
	ok     bool // decoded to a record
}

// readSnapshot loads dir's snapshot. A missing file is an empty
// generation-0 snapshot. Any corruption — a bad frame, a header/entry
// count mismatch, a truncated file — is unrepairable locally (the
// compacted-away records exist nowhere else) and yields a typed
// resilience.ErrStorage error.
func readSnapshot(fsys atomicio.FS, dir string) (snapHeader, []*ledgerEntry, error) {
	path := filepath.Join(dir, snapshotName)
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return snapHeader{}, nil, nil
		}
		return snapHeader{}, nil, fmt.Errorf("serve: opening snapshot %s: %v: %w", path, err, resilience.ErrStorage)
	}
	defer f.Close()
	sc := atomicio.NewFrameScanner(f)
	corruptf := func(format string, args ...interface{}) error {
		return fmt.Errorf("serve: snapshot %s: %s: %w", path, fmt.Sprintf(format, args...), resilience.ErrStorage)
	}
	next := func(what string) ([]byte, error) {
		fr, err := sc.Next()
		if err != nil {
			return nil, corruptf("missing %s frame: %v", what, err)
		}
		if fr.Err != nil || !fr.Framed || fr.Torn {
			return nil, corruptf("%s frame corrupt (framed=%v torn=%v): %v", what, fr.Framed, fr.Torn, fr.Err)
		}
		return fr.Payload, nil
	}
	hb, err := next("header")
	if err != nil {
		return snapHeader{}, nil, err
	}
	var hdr snapHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return snapHeader{}, nil, corruptf("undecodable header: %v", err)
	}
	if hdr.Version != 1 {
		return snapHeader{}, nil, corruptf("unknown version %d", hdr.Version)
	}
	entries := make([]*ledgerEntry, 0, hdr.Jobs)
	for i := 0; i < hdr.Jobs; i++ {
		eb, err := next(fmt.Sprintf("entry %d/%d", i+1, hdr.Jobs))
		if err != nil {
			return snapHeader{}, nil, err
		}
		var se snapEntry
		if err := json.Unmarshal(eb, &se); err != nil {
			return snapHeader{}, nil, corruptf("undecodable entry %d: %v", i+1, err)
		}
		entries = append(entries, &ledgerEntry{id: se.ID, spec: append([]byte(nil), se.Spec...),
			state: se.State, attempts: se.Attempts, class: se.Class, errMsg: se.Error,
			degraded: se.Degraded, faults: se.Faults, stolen: se.Stolen, thief: se.Thief})
	}
	if _, err := sc.Next(); err != io.EOF {
		return snapHeader{}, nil, corruptf("trailing data past %d entries", hdr.Jobs)
	}
	return hdr, entries, nil
}

// scanJournal reads dir's journal line by line, sniffing formats and
// verifying frames. It never mutates the file. A missing journal is
// empty.
func scanJournal(fsys atomicio.FS, dir string) ([]journalLine, bool, error) {
	path := filepath.Join(dir, journalName)
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("serve: opening journal %s: %v: %w", path, err, resilience.ErrStorage)
	}
	defer f.Close()
	sc := atomicio.NewFrameScanner(f)
	var lines []journalLine
	torn := false
	for {
		fr, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("serve: reading journal %s: %v: %w", path, err, resilience.ErrStorage)
		}
		if fr.Torn {
			torn = true // unterminated tail: never decoded, healed by the appender
			break
		}
		jl := journalLine{raw: append([]byte(nil), fr.Raw...), framed: fr.Framed}
		if fr.Err == nil {
			if jerr := json.Unmarshal(fr.Payload, &jl.rec); jerr == nil && jl.rec.Kind != "" {
				jl.ok = true
			}
		}
		lines = append(lines, jl)
	}
	return lines, torn, nil
}

// foldRecords folds journal records over a snapshot base, skipping
// records the snapshot already covers (Seq <= afterSeq) — the rule that
// makes recovery exact whichever side of the compaction swap a crash
// landed on. The base entries are mutated in place and extended with
// newly submitted jobs, preserving first-submission order.
func foldRecords(base []*ledgerEntry, recs []record, afterSeq int) []*ledgerEntry {
	byID := make(map[string]*ledgerEntry, len(base))
	order := base
	for _, e := range base {
		byID[e.id] = e
	}
	for _, rec := range recs {
		if afterSeq > 0 && rec.Seq <= afterSeq {
			continue // already folded into the snapshot base
		}
		e := byID[rec.Job]
		switch rec.Kind {
		case recSubmit:
			if e != nil {
				continue // duplicated submit: first spec wins
			}
			e = &ledgerEntry{id: rec.Job, spec: append([]byte(nil), rec.Spec...), state: StateQueued}
			byID[rec.Job] = e
			order = append(order, e)
		case recStart:
			if e != nil {
				e.attempts++
			}
		case recFinish:
			if e != nil && !e.stolen {
				e.state = rec.State
				e.class = rec.Class
				e.errMsg = rec.Error
				e.degraded = rec.Degraded
				e.faults = rec.Faults
			}
		case recSuspend:
			if e != nil && !e.stolen {
				e.state = StateQueued
				e.degraded = rec.Degraded
				e.faults = rec.Faults
			}
		case recSteal:
			if e != nil {
				e.stolen = true
				e.thief = rec.Thief
			}
		}
	}
	return order
}

// loadSpool recovers a spool's durable state: snapshot, scrubbed
// journal, seq-filtered fold. With repair=false the spool is only read
// (inspect/verify); with repair=true the scrub rewrites the journal to
// drop corrupt lines into quarantine and completes a crashed compaction
// swap (a stale journal is replaced by a fresh genesis journal). Repair
// requires a quiescent spool: the caller owns it exclusively (startup,
// an offline CLI, or a fenced victim).
func loadSpool(fsys atomicio.FS, dir string, repair bool) (*spoolState, error) {
	hdr, base, err := readSnapshot(fsys, dir)
	if err != nil {
		return nil, err
	}
	lines, torn, err := scanJournal(fsys, dir)
	if err != nil {
		return nil, err
	}
	st := &spoolState{seq: hdr.Seq, gen: hdr.Gen}
	st.scrub.tornHealed = torn

	// A corrupt or undecodable FINAL line is a tear (healed); corrupt
	// lines with durable successors are bit rot (quarantined).
	var bad [][]byte
	var keep []journalLine
	for i, jl := range lines {
		if jl.ok {
			keep = append(keep, jl)
			continue
		}
		if i == len(lines)-1 && !torn {
			st.scrub.tornHealed = true
			continue
		}
		bad = append(bad, jl.raw)
	}
	st.scrub.quarantined = len(bad)

	// Genesis bookkeeping: the first record of a compacted journal names
	// its generation. A genesis generation ahead of the snapshot means the
	// snapshot it folded into is gone — jobs are missing and no local
	// repair can bring them back.
	genesisGen := 0
	var recs []record
	for _, jl := range keep {
		if jl.rec.Kind == recGenesis {
			if jl.rec.Gen > genesisGen {
				genesisGen = jl.rec.Gen
			}
			if jl.rec.Seq > st.seq {
				st.seq = jl.rec.Seq
			}
			continue
		}
		if jl.framed {
			st.scrub.framed++
		} else {
			st.scrub.legacy++
		}
		recs = append(recs, jl.rec)
	}
	st.scrub.records = len(recs)
	if genesisGen > hdr.Gen {
		return nil, fmt.Errorf("serve: journal in %s is generation %d but snapshot is generation %d (snapshot lost): %w",
			dir, genesisGen, hdr.Gen, resilience.ErrStorage)
	}
	stale := hdr.Gen > 0 && genesisGen < hdr.Gen

	st.entries = foldRecords(base, recs, hdr.Seq)
	for _, r := range recs {
		if r.Seq > st.seq {
			st.seq = r.Seq
		}
	}

	if repair {
		if len(bad) > 0 {
			if err := quarantineLines(fsys, dir, bad); err != nil {
				return nil, err
			}
		}
		switch {
		case stale:
			// Crash between the two swap renames: the journal predates the
			// snapshot and every record in it is already folded (the seq
			// filter proved that). Complete the swap with a fresh journal.
			if err := writeFreshJournal(fsys, dir, hdr.Gen, st.seq); err != nil {
				return nil, err
			}
			st.scrub.staleHealed = true
		case len(bad) > 0 || (st.scrub.tornHealed && !torn):
			// Rewrite the journal without its quarantined (or corrupt-tail)
			// lines, preserving every kept line byte-for-byte — legacy lines
			// stay legacy, so migration remains a read-path concern only.
			if err := rewriteJournal(fsys, dir, keep); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// quarantineLines appends raw corrupt lines to the spool's quarantine
// file for forensics; scrub then drops them from the journal.
func quarantineLines(fsys atomicio.FS, dir string, lines [][]byte) error {
	path := filepath.Join(dir, quarantineName)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: opening quarantine %s: %v: %w", path, err, resilience.ErrStorage)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.Write(append(append([]byte(nil), l...), '\n')); err != nil {
			return fmt.Errorf("serve: writing quarantine %s: %v: %w", path, err, resilience.ErrStorage)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing quarantine %s: %v: %w", path, err, resilience.ErrStorage)
	}
	return nil
}

// rewriteJournal atomically replaces the journal with the kept lines,
// byte-identical, in order.
func rewriteJournal(fsys atomicio.FS, dir string, keep []journalLine) error {
	err := atomicio.WriteFileFS(fsys, filepath.Join(dir, journalName), func(w io.Writer) error {
		for _, jl := range keep {
			if _, werr := w.Write(append(append([]byte(nil), jl.raw...), '\n')); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: rewriting journal in %s: %v: %w", dir, err, resilience.ErrStorage)
	}
	return nil
}

// writeFreshJournal atomically installs a truncated journal holding only
// a genesis record for generation gen, continuing at seq.
func writeFreshJournal(fsys atomicio.FS, dir string, gen, seq int) error {
	rec := record{Seq: seq, Kind: recGenesis, Gen: gen}
	b, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("serve: encoding genesis record: %v: %w", err, resilience.ErrStorage)
	}
	frame, err := atomicio.EncodeFrame(b)
	if err != nil {
		return fmt.Errorf("serve: framing genesis record: %v: %w", err, resilience.ErrStorage)
	}
	werr := atomicio.WriteFileFS(fsys, filepath.Join(dir, journalName), func(w io.Writer) error {
		_, e := w.Write(append(frame, '\n'))
		return e
	})
	if werr != nil {
		return fmt.Errorf("serve: writing fresh journal in %s: %v: %w", dir, werr, resilience.ErrStorage)
	}
	return nil
}

// compactSpool performs one compaction swap on a quiescent spool: fold
// everything durable, write+rename a snapshot at generation+1, then
// write+rename a fresh genesis journal. crash (nil in production paths
// without fault injection) is consulted at every boundary and simulates
// kill -9 by returning errCompactCrashed — the files stay exactly as the
// crash left them, and loadSpool recovers the identical admitted set
// from either side of each boundary. Any real I/O failure yields a typed
// resilience.ErrStorage error; the caller re-heals via loadSpool before
// appending again.
func compactSpool(fsys atomicio.FS, dir string, crash func(boundary string) bool) error {
	st, err := loadSpool(fsys, dir, true)
	if err != nil {
		return err
	}
	newGen := st.gen + 1
	at := func(boundary string) bool { return crash != nil && crash(boundary) }

	// Snapshot first: written to a temp name, fsynced, then renamed live.
	// WriteFileFS already gives the write/rename atomicity; the two crash
	// boundaries it spans are separated by performing the steps here.
	snapPath := filepath.Join(dir, snapshotName)
	tmpSnap := snapPath + ".swap"
	if err := writeSnapshotTo(fsys, tmpSnap, snapHeader{Gen: newGen, Seq: st.seq}, st.entries); err != nil {
		return err
	}
	if at(compactSnapWritten) {
		return errCompactCrashed
	}
	if err := fsys.Rename(tmpSnap, snapPath); err != nil {
		fsys.Remove(tmpSnap)
		return fmt.Errorf("serve: installing snapshot %s: %v: %w", snapPath, err, resilience.ErrStorage)
	}
	if at(compactSnapRenamed) {
		return errCompactCrashed
	}

	// Then the truncated journal. Until its rename lands, the old journal
	// is stale against the new snapshot — exactly the state loadSpool's
	// seq filter and stale-heal recover from.
	jPath := filepath.Join(dir, journalName)
	tmpJournal := jPath + ".swap"
	rec := record{Seq: st.seq, Kind: recGenesis, Gen: newGen}
	b, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("serve: encoding genesis record: %v: %w", err, resilience.ErrStorage)
	}
	frame, err := atomicio.EncodeFrame(b)
	if err != nil {
		return fmt.Errorf("serve: framing genesis record: %v: %w", err, resilience.ErrStorage)
	}
	if err := writeFileTo(fsys, tmpJournal, append(frame, '\n')); err != nil {
		return err
	}
	if at(compactJournalWritten) {
		return errCompactCrashed
	}
	if err := fsys.Rename(tmpJournal, jPath); err != nil {
		fsys.Remove(tmpJournal)
		return fmt.Errorf("serve: installing journal %s: %v: %w", jPath, err, resilience.ErrStorage)
	}
	if at(compactJournalRenamed) {
		return errCompactCrashed
	}
	return nil
}

// writeSnapshotTo writes a complete snapshot file at path (no rename).
func writeSnapshotTo(fsys atomicio.FS, path string, hdr snapHeader, entries []*ledgerEntry) error {
	hdr.Version = 1
	hdr.Jobs = len(entries)
	var buf []byte
	appendFrame := func(v interface{}) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		frame, err := atomicio.EncodeFrame(b)
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
		buf = append(buf, '\n')
		return nil
	}
	if err := appendFrame(&hdr); err != nil {
		return fmt.Errorf("serve: encoding snapshot header: %v: %w", err, resilience.ErrStorage)
	}
	for _, e := range entries {
		se := snapEntry{ID: e.id, Spec: e.spec, State: e.state, Attempts: e.attempts,
			Class: e.class, Error: e.errMsg, Degraded: e.degraded, Faults: e.faults,
			Stolen: e.stolen, Thief: e.thief}
		if err := appendFrame(&se); err != nil {
			return fmt.Errorf("serve: encoding snapshot entry %s: %v: %w", e.id, err, resilience.ErrStorage)
		}
	}
	return writeFileTo(fsys, path, buf)
}

// writeFileTo creates path, writes data, fsyncs, and closes — the
// "written but not yet renamed" half of an atomic swap.
func writeFileTo(fsys atomicio.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: creating %s: %v: %w", path, err, resilience.ErrStorage)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(path)
		return fmt.Errorf("serve: writing %s: %v: %w", path, err, resilience.ErrStorage)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(path)
		return fmt.Errorf("serve: syncing %s: %v: %w", path, err, resilience.ErrStorage)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return fmt.Errorf("serve: closing %s: %v: %w", path, err, resilience.ErrStorage)
	}
	return nil
}

// compactCrash is the injection seam for the compact-crash fault hook:
// compactSpool consults it at every boundary in order, so a
// `compact-crash:at=N` spec selects which boundary the "process" dies
// at.
func (s *Server) compactCrash(boundary string) bool {
	return s.cfg.Faults.Fire(faults.CompactCrash)
}

// maybeCompact triggers a live compaction once the appender has written
// CompactEvery lines. Called from workers after a job settles (no locks
// held); the CAS keeps compactions exclusive and extra triggers cheap.
func (s *Server) maybeCompact() {
	if s.cfg.CompactEvery <= 0 || s.jl.lines() < int64(s.cfg.CompactEvery) {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	if s.draining.Load() || s.crashed.Load() {
		return
	}
	s.compactNow()
}

// compactNow pauses the journal, closes its appender, swaps in a
// snapshot + truncated journal, and reopens. An injected compact-crash
// transitions the server to the crashed state (files stay exactly as
// the crash left them — the torture harness restarts over the spool).
// A real failure is healed — the half-landed swap is completed or
// rolled forward by the scrub — before appends resume; if even the
// heal fails, the journal is poisoned and the server degrades typed.
func (s *Server) compactNow() {
	s.jl.pause()
	defer s.jl.unpause()
	if err := s.jl.closeAppender(); err != nil {
		s.logf("compact: closing appender: %v", err)
	}
	err := compactSpool(s.cfg.FS, s.cfg.SpoolDir, s.compactCrash)
	if errors.Is(err, errCompactCrashed) {
		// Simulated kill -9 mid-swap: nothing after the crash instant may
		// land. Mirrors Crash() without waiting for workers — the caller
		// IS a worker.
		s.logf("compact: injected crash at swap boundary")
		s.crashed.Store(true)
		s.jl.kill()
		s.hardCancel()
		return
	}
	if err != nil {
		s.logf("compact: swap failed (%v); healing", err)
		s.counter("serve.journal.compact_failures").Add(1)
		if _, herr := loadSpool(s.cfg.FS, s.cfg.SpoolDir, true); herr != nil {
			s.logf("compact: heal failed (%v); journal poisoned", herr)
			s.jl.poisoned.Store(true)
			return
		}
	} else {
		s.counter("serve.journal.compactions").Add(1)
	}
	if rerr := s.jl.reopenAppender(); rerr != nil {
		s.logf("compact: %v", rerr)
	}
}
