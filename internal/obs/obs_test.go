package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsFree asserts the disabled path: every operation on a nil
// recorder, span, or metric is a no-op and allocates nothing, so
// instrumentation left in hot paths costs nothing when tracing is off.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.StartSpan("x")
		c := sp.StartChild("y")
		c.Event("e")
		c.End()
		sp.End()
		r.Event("e")
		r.Counter("c").Inc()
		r.Counter("c").Add(5)
		r.Gauge("g").Set(1)
		r.Histogram("h").Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per op, want 0", allocs)
	}
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("nil metrics returned nonzero values")
	}
	if r.Records() != nil {
		t.Fatal("nil recorder returned records")
	}
	if got := r.Snapshot(); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Fatalf("nil snapshot = %+v", got)
	}
}

func TestSpanTreeBasics(t *testing.T) {
	r := NewWithClock(NewFakeClock(10))
	root := r.StartSpan("root", S("case", "t"), I("n", 2))
	child := root.StartChild("child", I("i", 3))
	child.Event("hit", F("v", 1.5))
	child.End()
	child.End() // idempotent
	root.End()
	r.Event("loose")

	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if err := ValidateTrace(recs); err != nil {
		t.Fatal(err)
	}
	// Emission order: child's event, child span, root span, root event.
	if recs[0].Kind != KindEvent || recs[0].Name != "hit" || recs[0].Parent == 0 {
		t.Fatalf("recs[0] = %+v", recs[0])
	}
	if recs[1].Name != "child" || recs[1].Parent != recs[2].ID {
		t.Fatalf("child span = %+v, root = %+v", recs[1], recs[2])
	}
	if recs[2].Name != "root" || recs[2].Parent != 0 || len(recs[2].Attrs) != 2 {
		t.Fatalf("root span = %+v", recs[2])
	}
	if recs[3].Parent != 0 || recs[3].At == 0 {
		t.Fatalf("root event = %+v", recs[3])
	}
	// Durations come off the fake clock: strictly positive and nested.
	if recs[1].Dur <= 0 || recs[2].Dur <= recs[1].Dur {
		t.Fatalf("durations child=%d root=%d", recs[1].Dur, recs[2].Dur)
	}
	if h := r.Snapshot().Histograms["span_ns.child"]; h.Count != 1 {
		t.Fatalf("span histogram = %+v", h)
	}
}

// TestConcurrentSpansParallel is the well-nestedness property under the
// kind of fan-out the worker pools do: one root span, N goroutines each
// opening/closing their own child with events. The trace must validate
// (no interleaved open/close corrupting the tree) and its canonical form
// must match a serial emission of the same shape.
func TestConcurrentSpansParallel(t *testing.T) {
	const workers = 8
	const perWorker = 25

	emit := func(concurrent bool) []Record {
		r := NewWithClock(NewFakeClock(1))
		root := r.StartSpan("root")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			run := func(w int) {
				for i := 0; i < perWorker; i++ {
					sp := root.StartChild("unit", I("worker", w), I("i", i))
					sp.Event("tick", I("i", i))
					r.Counter("units").Inc()
					sp.End()
				}
			}
			if concurrent {
				wg.Add(1)
				go func(w int) { defer wg.Done(); run(w) }(w)
			} else {
				run(w)
			}
		}
		wg.Wait()
		root.End()
		return r.Records()
	}

	conc := emit(true)
	serial := emit(false)
	if err := ValidateTrace(conc); err != nil {
		t.Fatalf("concurrent trace invalid: %v", err)
	}
	if err := ValidateTrace(serial); err != nil {
		t.Fatalf("serial trace invalid: %v", err)
	}
	if got, want := len(conc), workers*perWorker*2+1; got != want {
		t.Fatalf("concurrent trace has %d records, want %d", got, want)
	}
	if !bytes.Equal(CanonicalTrace(conc), CanonicalTrace(serial)) {
		t.Fatal("canonical trace differs between concurrent and serial emission")
	}
}

// TestCountersMergeAssociativeParallel drives counters from several
// goroutines and checks Merge associativity over randomized snapshots.
func TestCountersMergeAssociativeParallel(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("a").Inc()
				r.Counter(fmt.Sprintf("w%d", w)).Add(2)
				r.Histogram("h").Observe(int64(i % 7))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("a").Value(); got != 4000 {
		t.Fatalf("counter a = %d, want 4000", got)
	}
	if h := r.Snapshot().Histograms["h"]; h.Count != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count)
	}

	rng := rand.New(rand.NewSource(42))
	randSnap := func() Snapshot {
		s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}, Histograms: map[string]HistSnapshot{}}
		for _, k := range []string{"x", "y", "z"} {
			if rng.Intn(2) == 0 {
				s.Counters[k] = int64(rng.Intn(100))
			}
			if rng.Intn(2) == 0 {
				s.Gauges[k] = rng.Float64()
			}
			if rng.Intn(2) == 0 {
				s.Histograms[k] = HistSnapshot{
					Count:   int64(rng.Intn(10)),
					Sum:     int64(rng.Intn(1000)),
					Buckets: map[string]int64{bucketKey(rng.Intn(5)): int64(1 + rng.Intn(4))},
				}
			}
		}
		return s
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := randSnap(), randSnap(), randSnap()
		left := Merge(Merge(a, b), c)
		right := Merge(a, Merge(b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("trial %d: Merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", trial, left, right)
		}
	}
}

func TestGaugeMergeLastWins(t *testing.T) {
	a := Snapshot{Gauges: map[string]float64{"g": 1, "only_a": 7}}
	b := Snapshot{Gauges: map[string]float64{"g": 2}}
	m := Merge(a, b)
	if m.Gauges["g"] != 2 || m.Gauges["only_a"] != 7 {
		t.Fatalf("merged gauges = %+v", m.Gauges)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := NewWithClock(NewFakeClock(3))
	sp := r.StartSpan("flow", S("case", "CLS1v1"))
	sp.Event("checkpoint", I("iter", 4))
	ch := sp.StartChild("stage")
	ch.End()
	sp.End()
	r.Event("root-event", F("v", 0.25))

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r.Records()) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, r.Records())
	}
	if err := ValidateTrace(got); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "{\"kind\":\"span\",\"id\":1,\"name\":\"x\",\"dur_ns\":1}\nnope\n",
		"unknown field": "{\"kind\":\"span\",\"id\":1,\"name\":\"x\",\"bogus\":1}\n",
		"bad kind":      "{\"kind\":\"metric\",\"name\":\"x\"}\n",
		"span no id":    "{\"kind\":\"span\",\"name\":\"x\"}\n",
		"event with id": "{\"kind\":\"event\",\"id\":3,\"name\":\"x\"}\n",
		"empty name":    "{\"kind\":\"event\",\"name\":\"\"}\n",
		"neg duration":  "{\"kind\":\"span\",\"id\":1,\"name\":\"x\",\"dur_ns\":-5}\n",
		"bad attr kind": "{\"kind\":\"event\",\"name\":\"x\",\"attrs\":[{\"k\":\"a\",\"t\":\"b\"}]}\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, in)
		}
	}
	// Blank lines are tolerated.
	recs, err := ReadTrace(strings.NewReader("\n{\"kind\":\"event\",\"name\":\"x\"}\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("blank-line trace: recs=%d err=%v", len(recs), err)
	}
}

func TestValidateTraceStructuralErrors(t *testing.T) {
	span := func(id, parent uint64, name string, start, dur int64) Record {
		return Record{Kind: KindSpan, ID: id, Parent: parent, Name: name, Start: start, Dur: dur}
	}
	cases := map[string][]Record{
		"duplicate id": {span(1, 0, "a", 0, 10), span(1, 0, "b", 0, 10)},
		"orphan parent": {
			{Kind: KindEvent, Name: "e", Parent: 99, At: 5},
		},
		"child not nested":  {span(1, 0, "a", 10, 10), span(2, 1, "b", 5, 30)},
		"event outside":     {span(1, 0, "a", 10, 10), {Kind: KindEvent, Name: "e", Parent: 1, At: 50}},
		"span parent event": {{Kind: KindSpan, ID: 1, Parent: 2, Name: "a"}},
	}
	for name, recs := range cases {
		if err := ValidateTrace(recs); err == nil {
			t.Errorf("%s: ValidateTrace accepted %+v", name, recs)
		}
	}
	ok := []Record{
		span(1, 0, "a", 0, 100),
		span(2, 1, "b", 10, 20),
		{Kind: KindEvent, Name: "e", Parent: 2, At: 15},
	}
	if err := ValidateTrace(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestCanonicalTraceStripsSchedule(t *testing.T) {
	// Same logical tree, different ids/timestamps/emission order.
	a := []Record{
		{Kind: KindSpan, ID: 7, Name: "root", Start: 100, Dur: 50},
		{Kind: KindSpan, ID: 9, Parent: 7, Name: "leaf", Start: 110, Dur: 5, Attrs: []Attr{I("i", 1)}},
		{Kind: KindEvent, Parent: 9, Name: "e", At: 111},
	}
	b := []Record{
		{Kind: KindEvent, Parent: 2, Name: "e", At: 4},
		{Kind: KindSpan, ID: 2, Parent: 1, Name: "leaf", Start: 3, Dur: 2, Attrs: []Attr{I("i", 1)}},
		{Kind: KindSpan, ID: 1, Name: "root", Start: 1, Dur: 9},
	}
	if !bytes.Equal(CanonicalTrace(a), CanonicalTrace(b)) {
		t.Fatalf("canonical forms differ:\n%s\nvs\n%s", CanonicalTrace(a), CanonicalTrace(b))
	}
	if !strings.Contains(string(CanonicalTrace(a)), "root/leaf/e") {
		t.Fatalf("canonical trace missing path: %s", CanonicalTrace(a))
	}
	// Different attr value => different canonical form.
	c := append([]Record(nil), a...)
	c[1].Attrs = []Attr{I("i", 2)}
	if bytes.Equal(CanonicalTrace(a), CanonicalTrace(c)) {
		t.Fatal("canonical trace ignored attribute change")
	}
	// Unresolvable parent renders as "?" instead of failing.
	orphan := []Record{{Kind: KindEvent, Parent: 42, Name: "e", At: 1}}
	if !strings.Contains(string(CanonicalTrace(orphan)), "?/e") {
		t.Fatalf("orphan path = %s", CanonicalTrace(orphan))
	}
}

func TestCanonicalOrderedKeepsOrder(t *testing.T) {
	recs := []Record{
		{Kind: KindEvent, Name: "b", At: 1},
		{Kind: KindEvent, Name: "a", At: 2},
	}
	got := string(CanonicalOrdered(recs))
	if !(strings.Index(got, "\"b\"") < strings.Index(got, "\"a\"")) {
		t.Fatalf("order not preserved: %s", got)
	}
	if bytes.Equal(CanonicalOrdered(recs), CanonicalTrace(recs)) {
		t.Fatal("expected sorted and ordered forms to differ for out-of-order input")
	}
}

func TestFilterNames(t *testing.T) {
	recs := []Record{
		{Kind: KindEvent, Name: "keep", At: 1},
		{Kind: KindEvent, Name: "drop", At: 2},
		{Kind: KindSpan, ID: 1, Name: "keep", Dur: 1},
	}
	got := FilterNames(recs, "keep")
	if len(got) != 2 || got[0].At != 1 || got[1].ID != 1 {
		t.Fatalf("FilterNames = %+v", got)
	}
	if FilterNames(recs) != nil {
		t.Fatal("empty name list should filter everything")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(-3) // clamps to 0
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1024)
	s := h.snapshot()
	if s.Count != 6 || s.Sum != 1030 {
		t.Fatalf("snapshot = %+v", s)
	}
	want := map[string]int64{"2^00": 2, "2^01": 1, "2^02": 2, "2^11": 1}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("rate").Set(0.5)
	r.Histogram("h").Observe(7)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "m1.json")
	p2 := filepath.Join(dir, "m2.json")
	if err := r.WriteMetrics(p1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("metrics JSON not deterministic across writes")
	}
	if !strings.Contains(string(b1), "\"a.count\": 1") || !strings.Contains(string(b1), "\"rate\": 0.5") {
		t.Fatalf("metrics JSON = %s", b1)
	}
	// Key order in the document follows sorted map keys.
	if strings.Index(string(b1), "a.count") > strings.Index(string(b1), "b.count") {
		t.Fatalf("counter keys unsorted: %s", b1)
	}
}

func TestFakeClockMonotonic(t *testing.T) {
	c := NewFakeClock(0) // clamps step to 1
	prev := c.Now()
	for i := 0; i < 100; i++ {
		n := c.Now()
		if n <= prev {
			t.Fatalf("clock went backwards: %d after %d", n, prev)
		}
		prev = n
	}
	w := WallClock{}
	a, b := w.Now(), w.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %d after %d", b, a)
	}
}

func TestUnendedSpanNotRecorded(t *testing.T) {
	r := NewWithClock(NewFakeClock(1))
	sp := r.StartSpan("open")
	sp.StartChild("never-ended")
	done := sp.StartChild("done")
	done.End()
	sp.End()
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (only ended spans)", len(recs))
	}
	for _, rec := range recs {
		if rec.Name == "never-ended" {
			t.Fatal("un-ended span leaked into the trace")
		}
	}
	// The still-valid trace references only recorded parents.
	if err := ValidateTrace(recs); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations in [1,2), 9 in [512,1024), 1 in [4096,8192).
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 9; i++ {
		h.Observe(700)
	}
	h.Observe(5000)
	s := h.snapshot()
	cases := []struct {
		q    float64
		want int64
	}{
		{0.5, 1},     // bucket [1,2) upper edge
		{0.90, 1},    // exactly the 90th observation
		{0.95, 1023}, // bucket [512,1024)
		{0.99, 1023},
		{1.0, 8191}, // the max lives in [4096,8192)
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := (HistSnapshot{}).Quantile(0.99); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}
	var zeros Histogram
	zeros.Observe(0)
	if got := zeros.snapshot().Quantile(0.99); got != 0 {
		t.Errorf("all-zero histogram Quantile = %d, want 0", got)
	}
}
