// Package obs is the observability layer of the flows: a stdlib-only
// recorder of span trees and events (the trace) plus typed counters,
// gauges, and histograms (the metrics), with the clock injected so replay
// and golden-trace tests stay deterministic.
//
// The package follows the repo's nil-safe recorder idiom (see
// resilience.Recorder): a nil *Recorder, nil *Span, nil *Counter, nil
// *Gauge, and nil *Histogram are all valid no-op receivers, so
// instrumentation sites need no enablement checks beyond the guards they
// already want for avoiding attribute allocation on hot paths.
//
// Traces serialize as JSONL (one Record per line) through
// atomicio.WriteFile; see trace.go for the schema, validation, and the
// canonical forms used by the golden-trace tests. Metrics serialize as a
// single sorted-key JSON document via Snapshot.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"skewvar/internal/edaio/atomicio"
)

// Attr is one key/value attribute on a span or event. Values are either
// numeric ("n") or string ("s"); integers ride as float64, which is exact
// for the magnitudes instrumentation records (< 2^53).
type Attr struct {
	Key  string  `json:"k"`
	Kind string  `json:"t"` // "n" or "s"
	Num  float64 `json:"n,omitempty"`
	Str  string  `json:"s,omitempty"`
}

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Kind: "s", Str: v} }

// F builds a numeric attribute from a float64.
func F(key string, v float64) Attr { return Attr{Key: key, Kind: "n", Num: v} }

// I builds a numeric attribute from an int.
func I(key string, v int) Attr { return Attr{Key: key, Kind: "n", Num: float64(v)} }

// Recorder collects spans, events, and metrics. Construct with New (wall
// clock) or NewWithClock (injected clock); a nil *Recorder is a no-op sink.
// All methods are safe for concurrent use.
type Recorder struct {
	clock  Clock
	nextID atomic.Uint64

	mu   sync.Mutex
	recs []Record

	metMu    sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns a Recorder stamping spans with the process monotonic clock.
func New() *Recorder { return NewWithClock(WallClock{}) }

// NewWithClock returns a Recorder using the given clock (wall clock when
// nil). Inject a FakeClock for deterministic traces.
func NewWithClock(c Clock) *Recorder {
	if c == nil {
		c = WallClock{}
	}
	return &Recorder{
		clock:    c,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

func (r *Recorder) append(rec Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// StartSpan opens a root span. Nil-safe (returns nil). The span is recorded
// when End is called; un-ended spans never reach the trace.
func (r *Recorder) StartSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		r:     r,
		id:    r.nextID.Add(1),
		name:  name,
		start: r.clock.Now(),
		attrs: attrs,
	}
}

// Event records an instantaneous root-level event (no owning span).
// Nil-safe.
func (r *Recorder) Event(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.append(Record{Kind: KindEvent, Name: name, At: r.clock.Now(), Attrs: attrs})
}

// Records returns a copy of the records emitted so far (ended spans and
// events, in emission order). Nil-safe (returns nil).
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.recs))
	copy(out, r.recs)
	return out
}

// Counter returns the named counter, creating it on first use. Nil-safe
// (returns a nil *Counter, itself a no-op).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil-safe.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Span is one timed region of the trace. Spans form a tree via StartChild.
// A span is owned by the goroutine that started it, which ends it, but
// children may be started and ended from worker goroutines (each child then
// owned by its worker). Nil *Span receivers are no-ops throughout.
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	start  int64
	attrs  []Attr
	ended  atomic.Bool
}

// StartChild opens a child span. Nil-safe.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		r:      s.r,
		id:     s.r.nextID.Add(1),
		parent: s.id,
		name:   name,
		start:  s.r.clock.Now(),
		attrs:  attrs,
	}
}

// Event records an instantaneous event owned by this span. Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.r.append(Record{Kind: KindEvent, Parent: s.id, Name: name, At: s.r.clock.Now(), Attrs: attrs})
}

// End closes the span, records it, and observes its duration into the
// histogram "span_ns.<name>". Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	end := s.r.clock.Now()
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	s.r.append(Record{
		Kind:   KindSpan,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    dur,
		Attrs:  s.attrs,
	})
	s.r.Histogram("span_ns." + s.name).Observe(dur)
}

// Counter is a monotonically increasing int64 metric. Nil-safe no-op when
// obtained from a nil Recorder.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. Nil-safe.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (zero).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 metric. Nil-safe no-op when obtained
// from a nil Recorder.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (zero if never set). Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket
// 0 holds v <= 0).
const histBuckets = 64 + 1

// Histogram counts observations in log2 buckets with a running count and
// sum. Nil-safe no-op when obtained from a nil Recorder.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram. Bucket keys are
// "2^NN" upper-bound exponents ("2^00" holds zeros); empty buckets are
// omitted.
type HistSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = map[string]int64{}
			}
			s.Buckets[bucketKey(i)] = n
		}
	}
	return s
}

func bucketKey(i int) string {
	return "2^" + string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observations: the upper edge of the first log2 bucket whose cumulative
// count reaches ceil(q*count). The bound is conservative — a reported
// p99 is never below the true one, off by at most the 2x bucket width —
// which is the right direction for latency reporting. An empty histogram
// reports 0.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target > h.Count {
		target = h.Count
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.Buckets[bucketKey(i)]
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			if i >= 64 {
				return math.MaxInt64
			}
			return (1 << i) - 1
		}
	}
	return math.MaxInt64 // unreachable with a coherent snapshot
}

// Snapshot is a point-in-time copy of a Recorder's metrics. JSON encoding
// is deterministic: encoding/json sorts map keys.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current metric values. Nil-safe (zero Snapshot).
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	return s
}

// Merge combines two snapshots: counters and histograms add, gauges take
// b's value where set (last-write-wins). Merge is associative, so partial
// snapshots from sub-flows can be folded in any grouping.
func Merge(a, b Snapshot) Snapshot {
	var out Snapshot
	if len(a.Counters)+len(b.Counters) > 0 {
		out.Counters = make(map[string]int64, len(a.Counters)+len(b.Counters))
		for k, v := range a.Counters {
			out.Counters[k] = v
		}
		for k, v := range b.Counters {
			out.Counters[k] += v
		}
	}
	if len(a.Gauges)+len(b.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(a.Gauges)+len(b.Gauges))
		for k, v := range a.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range b.Gauges {
			out.Gauges[k] = v
		}
	}
	if len(a.Histograms)+len(b.Histograms) > 0 {
		out.Histograms = make(map[string]HistSnapshot, len(a.Histograms)+len(b.Histograms))
		for k, v := range a.Histograms {
			out.Histograms[k] = copyHist(v)
		}
		for k, v := range b.Histograms {
			m := out.Histograms[k]
			m.Count += v.Count
			m.Sum += v.Sum
			if len(v.Buckets) > 0 && m.Buckets == nil {
				m.Buckets = map[string]int64{}
			}
			for bk, n := range v.Buckets {
				m.Buckets[bk] += n
			}
			out.Histograms[k] = m
		}
	}
	return out
}

func copyHist(h HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: h.Count, Sum: h.Sum}
	if len(h.Buckets) > 0 {
		out.Buckets = make(map[string]int64, len(h.Buckets))
		for k, v := range h.Buckets {
			out.Buckets[k] = v
		}
	}
	return out
}

// WriteMetrics atomically writes the recorder's metrics snapshot as
// indented JSON. Nil-safe (writes an empty snapshot's "{}" document).
func (r *Recorder) WriteMetrics(path string) error {
	return WriteSnapshot(path, r.Snapshot())
}

// WriteSnapshot atomically writes an already-materialized snapshot as
// indented JSON — the fleet coordinator uses it to persist its merged
// cross-replica view, which no single recorder holds.
func WriteSnapshot(path string, snap Snapshot) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	})
}
