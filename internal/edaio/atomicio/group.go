package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// GroupAppender is the crash-safe append-only line writer behind the skewd
// job journal. It is safe for concurrent use and coalesces concurrent
// AppendLine calls into one write+fsync per batch, flushing when MaxBatch
// lines are pending or the Window has elapsed since a line became pending
// — whichever comes first. Each caller blocks until *its* line is
// durable: a line whose AppendLine returned nil survives kill -9, and a
// crash can tear at most the bytes past the durable tail, which reopening
// heals.
//
// Flushing is leader-based: the caller that fills a batch (or whose
// window timer fires) performs the write+fsync for everyone in it, while
// later arrivals queue behind the in-progress flush and are committed by
// the next leader pass. With MaxBatch = 1 the appender degenerates to
// exactly one write+fsync per line — the fsync-per-line discipline — so
// equivalence tests can run both modes through one implementation.
//
// Failure semantics per batch: a failed or short write (or a failed
// fsync) rolls the file back to the durable tail and reports the error to
// every caller in the batch; the tail is re-truncated before the next
// write if the rollback itself failed, so a retried append never lands
// behind stray partial bytes. Offset always reports the durable tail —
// it never moves on a failed or rolled-back batch.
type GroupAppender struct {
	f    File
	opts GroupOptions

	mu       sync.Mutex
	cond     *sync.Cond // signaled when an in-progress flush completes
	off      int64      // durable tail: end of the last fsynced line
	pending  []pendingLine
	flushing bool
	due      bool // window expired while a flush was in progress
	timer    *time.Timer
	// needTrunc records that bytes past off may exist (failed write or
	// injected mid-write crash); the next flush truncates before writing.
	needTrunc bool
	dead      error // sticky: set by Kill, Close, or an injected crash
	syncs     int64
	lines     int64
}

type pendingLine struct {
	buf []byte // the line including its trailing '\n'
	ch  chan error
}

// Crash points consulted through GroupOptions.Hook at every batch
// boundary, in flush order. They let a durability torture test simulate
// kill -9 at the three states a batch can be caught in.
const (
	// FlushBeforeWrite crashes before any batch byte reaches the file:
	// the whole batch vanishes.
	FlushBeforeWrite = "before-write"
	// FlushMidWrite crashes after a torn prefix of the batch landed and
	// nothing was synced: the journal grows a torn tail.
	FlushMidWrite = "mid-write"
	// FlushBeforeSync crashes after the write but before the fsync
	// acknowledged it: the bytes may persist, but no caller was acked.
	FlushBeforeSync = "before-sync"
)

// FlushHook is the crash-injection point of a flush. It is consulted once
// per crash point per batch with the batch size in bytes; returning
// crash=true simulates kill -9 at that point — for FlushMidWrite, keep
// (clamped to [1, batchBytes-1]) is how many batch bytes land as a torn
// tail. After a crash the appender is dead: every pending and future
// AppendLine fails with ErrAppenderDead, exactly as a killed process
// stops acknowledging.
type FlushHook func(point string, batchBytes int) (crash bool, keep int)

// GroupOptions tunes a GroupAppender. The zero value is fsync-per-line
// (MaxBatch 1, no window).
type GroupOptions struct {
	// MaxBatch is both the flush trigger and the per-flush cap: a flush
	// commits at most MaxBatch lines, and a batch reaching MaxBatch
	// pending lines flushes immediately (<= 0 means 1, i.e. per-line).
	MaxBatch int

	// Window bounds how long a pending line may wait for its batch to
	// fill. 0 means no timed waiting: a line flushes as soon as no flush
	// is in progress, and batching arises only from lines that queued
	// behind an in-progress flush.
	Window time.Duration

	// Hook, when non-nil, is consulted at every crash point of every
	// flush (torture tests; nil in production).
	Hook FlushHook

	// OnFlush, when non-nil, is called after every durable flush with the
	// number of lines and bytes it committed — the metrics feed for
	// fsyncs/sec accounting. It runs outside the appender's lock but must
	// not call back into the appender.
	OnFlush func(lines int, bytes int64)
}

// ErrAppenderDead reports an append against a GroupAppender that was
// killed, closed, or crashed by an injected flush fault. The line was NOT
// acknowledged durable; it may or may not survive, like any line a killed
// process never heard back about.
var ErrAppenderDead = errors.New("edaio: journal appender is dead (crashed or closed)")

// errInjectedCrash is what waiters of the crashing batch observe; it
// wraps ErrAppenderDead so callers can test for one sentinel.
var errInjectedCrash = fmt.Errorf("edaio: injected flush crash: %w", ErrAppenderDead)

// OpenGroupAppender opens (or creates) path for group-commit appending
// on the real filesystem. A torn final line from a previous crash (the
// file not ending in '\n') is truncated away, so the first append lands
// directly after the last complete line and never concatenates onto torn
// bytes. Callers replaying the journal read it before opening the
// appender.
func OpenGroupAppender(path string, opts GroupOptions) (*GroupAppender, error) {
	return OpenGroupAppenderFS(OS, path, opts)
}

// OpenGroupAppenderFS is OpenGroupAppender against an explicit
// filesystem — storage-fault tests pass a WithFaults wrapper here.
func OpenGroupAppenderFS(fsys FS, path string, opts GroupOptions) (*GroupAppender, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("edaio: opening journal %s: %w", path, err)
	}
	off, err := healTornTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("edaio: healing journal %s: %w", path, err)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1
	}
	g := &GroupAppender{f: f, opts: opts, off: off}
	g.cond = sync.NewCond(&g.mu)
	return g, nil
}

// AppendLine appends one line (a trailing newline is added; line itself
// must not contain one) and blocks until the line is durable or its batch
// failed. Safe for concurrent use; concurrent callers share fsyncs.
func (g *GroupAppender) AppendLine(line []byte) error {
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("edaio: %w", ErrLineBreak)
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')

	g.mu.Lock()
	if g.dead != nil {
		err := g.dead
		g.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	g.pending = append(g.pending, pendingLine{buf: buf, ch: ch})
	switch {
	case g.flushing:
		// The in-progress leader (or the window timer) picks this line up.
		if len(g.pending) == 1 && g.opts.Window > 0 {
			g.armTimerLocked()
		}
		g.mu.Unlock()
	case len(g.pending) >= g.opts.MaxBatch || g.opts.Window <= 0:
		g.flushLoopLocked() // unlocks
	default:
		if len(g.pending) == 1 {
			g.armTimerLocked()
		}
		g.mu.Unlock()
	}
	return <-ch
}

// armTimerLocked schedules a window flush for the oldest pending line.
func (g *GroupAppender) armTimerLocked() {
	g.timer = time.AfterFunc(g.opts.Window, g.windowDue)
}

func (g *GroupAppender) stopTimerLocked() {
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
}

// windowDue runs when a pending line's window expires: it leads a flush,
// or marks the batch due so the in-progress leader commits it next.
func (g *GroupAppender) windowDue() {
	g.mu.Lock()
	g.timer = nil
	if g.dead != nil || len(g.pending) == 0 {
		g.mu.Unlock()
		return
	}
	if g.flushing {
		g.due = true
		g.mu.Unlock()
		return
	}
	g.flushLoopLocked() // unlocks
}

// flushLoopLocked is the leader loop: called with the lock held, it
// commits batches until no pending line demands an immediate flush, then
// releases the lock. Only one leader runs at a time (g.flushing).
func (g *GroupAppender) flushLoopLocked() {
	for {
		if g.dead != nil || len(g.pending) == 0 {
			break
		}
		k := len(g.pending)
		if k > g.opts.MaxBatch {
			k = g.opts.MaxBatch
		}
		batch := g.pending[:k:k]
		g.pending = append([]pendingLine(nil), g.pending[k:]...)
		g.due = false
		g.stopTimerLocked()
		g.flushing = true
		off, needTrunc := g.off, g.needTrunc
		var buf []byte
		for _, p := range batch {
			buf = append(buf, p.buf...)
		}
		g.mu.Unlock()

		crashed, err := g.writeBatch(off, needTrunc, buf)
		if err == nil && g.opts.OnFlush != nil {
			g.opts.OnFlush(len(batch), int64(len(buf)))
		}

		g.mu.Lock()
		g.flushing = false
		switch {
		case err == nil:
			g.off = off + int64(len(buf))
			g.needTrunc = false
			g.syncs++
			g.lines += int64(len(batch))
		case crashed:
			g.dead = ErrAppenderDead
		default:
			// Failed write or fsync: stray bytes may sit past the durable
			// tail; re-truncate before the next write. Offset is unmoved.
			g.needTrunc = true
		}
		// Each pending line's ack channel is buffered (cap 1) and receives
		// exactly one verdict, so these sends cannot block the leader.
		for _, p := range batch {
			//lint:ignore lockscope ack channels are cap-1 with one send ever; never blocks
			p.ch <- err
		}
		if g.dead != nil {
			// A dead appender acknowledges nothing more: fail the queue.
			for _, p := range g.pending {
				//lint:ignore lockscope ack channels are cap-1 with one send ever; never blocks
				p.ch <- g.dead
			}
			g.pending = nil
			g.stopTimerLocked()
			break
		}
		if len(g.pending) == 0 {
			break
		}
		if len(g.pending) >= g.opts.MaxBatch || g.opts.Window <= 0 || g.due {
			continue // another batch demands immediate commit
		}
		if g.timer == nil {
			g.armTimerLocked()
		}
		break
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// writeBatch performs one batch's truncate-write-fsync sequence against
// the durable tail at off, consulting the crash hook at each boundary.
// It reports crashed=true when the hook simulated kill -9.
func (g *GroupAppender) writeBatch(off int64, needTrunc bool, buf []byte) (crashed bool, err error) {
	if needTrunc {
		if terr := g.f.Truncate(off); terr != nil {
			return false, fmt.Errorf("edaio: re-truncating journal to %d: %w", off, terr)
		}
	}
	if g.opts.Hook != nil {
		if crash, _ := g.opts.Hook(FlushBeforeWrite, len(buf)); crash {
			return true, errInjectedCrash
		}
		if crash, keep := g.opts.Hook(FlushMidWrite, len(buf)); crash {
			if keep < 1 {
				keep = 1
			}
			if keep > len(buf)-1 {
				keep = len(buf) - 1
			}
			if keep > 0 {
				// The torn prefix lands unsynced — exactly the tail a real
				// mid-write crash can leave for reopening to heal.
				g.f.WriteAt(buf[:keep], off)
			}
			return true, errInjectedCrash
		}
	}
	n, werr := g.f.WriteAt(buf, off)
	if werr != nil {
		// Roll back whatever partial bytes landed; if the truncate fails
		// too, needTrunc makes the next flush truncate first.
		g.f.Truncate(off)
		return false, fmt.Errorf("edaio: appending journal batch (%d/%d bytes): %w", n, len(buf), werr)
	}
	if g.opts.Hook != nil {
		if crash, _ := g.opts.Hook(FlushBeforeSync, len(buf)); crash {
			return true, errInjectedCrash
		}
	}
	if serr := g.f.Sync(); serr != nil {
		g.f.Truncate(off)
		return false, fmt.Errorf("edaio: syncing journal batch: %w", serr)
	}
	return false, nil
}

// Offset returns the durable tail: the end of the last line whose batch
// was fsynced. It never reflects torn, unflushed, or rolled-back bytes.
func (g *GroupAppender) Offset() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.off
}

// Syncs returns how many fsyncs the appender has issued.
func (g *GroupAppender) Syncs() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncs
}

// Lines returns how many lines have been durably committed.
func (g *GroupAppender) Lines() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lines
}

// Kill simulates kill -9 for crash harnesses: pending unflushed lines are
// dropped unacknowledged, every waiting and future AppendLine fails with
// ErrAppenderDead, and the file is left exactly as the flushes that
// already ran left it. A batch whose fsync is in flight may still
// complete and acknowledge — as with a real kill, a syscall already in
// the kernel finishes. The file handle stays open for post-mortem reads.
func (g *GroupAppender) Kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead == nil {
		g.dead = ErrAppenderDead
	}
	for _, p := range g.pending {
		//lint:ignore lockscope ack channels are cap-1 with one send ever; never blocks
		p.ch <- g.dead
	}
	g.pending = nil
	g.stopTimerLocked()
}

// Close flushes every pending line, waits for in-progress flushes, and
// closes the file. No redundant fsync is issued: every committed batch
// was already synced by its flush. After Close, AppendLine fails with
// ErrAppenderDead.
func (g *GroupAppender) Close() error {
	g.mu.Lock()
	for {
		if g.dead != nil {
			g.mu.Unlock()
			return g.f.Close()
		}
		if g.flushing {
			g.cond.Wait()
			continue
		}
		if len(g.pending) > 0 {
			g.flushLoopLocked()
			g.mu.Lock()
			continue
		}
		break
	}
	g.dead = ErrAppenderDead
	g.stopTimerLocked()
	g.mu.Unlock()
	if err := g.f.Close(); err != nil {
		return fmt.Errorf("edaio: closing journal: %w", err)
	}
	return nil
}
