// Differential equivalence suite for the flat SoA kernel: every analysis
// it produces must be bitwise identical — floats, NaN positions, derived
// skews — to the plain per-corner reference timer (reference_test.go),
// across design classes, sizes, seeds and corner counts.
package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/exp"
	"skewvar/internal/geom"
	"skewvar/internal/obs"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// diffCorpus builds the differential corpus: the three benchmark classes
// at two sizes each, a reseeded variant (different placement, same
// class), and a four-corner training case. Three-corner and four-corner
// technologies, congested and uncongested timers.
func diffCorpus(t *testing.T) (names []string, designs []*ctree.Design, timers []*sta.Timer) {
	t.Helper()
	add := func(name string, d *ctree.Design, tm *sta.Timer) {
		names = append(names, name)
		designs = append(designs, d)
		timers = append(timers, tm)
	}
	vars := []testgen.Variant{
		testgen.CLS1v1(48), testgen.CLS1v1(140),
		testgen.CLS1v2(64), testgen.CLS2v1(80), testgen.CLS2v1(180),
	}
	reseeded := testgen.CLS1v2(72)
	reseeded.Seed = 4242
	reseeded.Name = "CLS1v2-s4242"
	vars = append(vars, reseeded)
	for _, v := range vars {
		d, tm := buildCase(t, v)
		add(v.Name, d, tm)
	}
	th := tech.Default28nm()
	rng := rand.New(rand.NewSource(23))
	tc := testgen.NewTrainingCase(th, rng)
	tm := sta.New(th)
	tm.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, 9)
	add("training-4corner", &ctree.Design{Name: "training", Tree: tc.Tree}, tm)
	return names, designs, timers
}

// mustEqualSkews pins the derived quantities flow decisions hang off:
// per-pair skews at every corner, the α normalization, and the summed
// variation objective.
func mustEqualSkews(t *testing.T, label string, want, got *sta.Analysis, pairs []ctree.SinkPair) {
	t.Helper()
	if len(pairs) == 0 {
		return
	}
	for k := 0; k < want.K; k++ {
		for _, p := range pairs {
			a, b := want.Skew(k, p.A, p.B), got.Skew(k, p.A, p.B)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: corner %d pair (%d,%d): skew %v vs %v", label, k, p.A, p.B, a, b)
			}
		}
	}
	aw, ag := sta.Alphas(want, pairs), sta.Alphas(got, pairs)
	for k := range aw {
		if math.Float64bits(aw[k]) != math.Float64bits(ag[k]) {
			t.Fatalf("%s: alpha[%d] %v vs %v", label, k, aw[k], ag[k])
		}
	}
	sw, sg := sta.SumVariation(want, aw, pairs), sta.SumVariation(got, ag, pairs)
	if math.Float64bits(sw) != math.Float64bits(sg) {
		t.Fatalf("%s: SumVariation %v vs %v", label, sw, sg)
	}
}

// TestFlatKernelMatchesReference is the core differential claim: for
// every corpus design, cold and warm analyses are bitwise identical to the
// reference timer's, down to derived skews.
func TestFlatKernelMatchesReference(t *testing.T) {
	names, designs, timers := diffCorpus(t)
	for i, d := range designs {
		ref := sta.ReferenceAnalyze(timers[i], d.Tree)
		ft := timerLike(timers[i])
		cold := ft.Analyze(d.Tree)
		mustBitEqual(t, names[i]+"/cold", ref, cold)
		mustEqualSkews(t, names[i]+"/cold", ref, cold, d.Pairs)
		warm := ft.Analyze(d.Tree)
		mustBitEqual(t, names[i]+"/warm", ref, warm)
		cold.Release()
		warm.Release()
	}
}

// canonicalAnalyzeTrace is the canonical trace of one Analyze of
// CLS1v1(64): the sta.analyze span over 3 corners and 191 drivers, and
// one sta.corner child per corner, sorted with ids and timings stripped.
const canonicalAnalyzeTrace = `{"kind":"span","path":"sta.analyze","attrs":[{"k":"corners","t":"n","n":3},{"k":"drivers","t":"n","n":191}]}
{"kind":"span","path":"sta.analyze/sta.corner","attrs":[{"k":"corner","t":"n","n":1}]}
{"kind":"span","path":"sta.analyze/sta.corner","attrs":[{"k":"corner","t":"n","n":2}]}
{"kind":"span","path":"sta.analyze/sta.corner","attrs":[{"k":"corner","t":"n"}]}
`

// TestFlatKernelCanonicalTrace pins the observability contract: the
// canonical trace (span kinds, ancestry, attributes — ids and timings
// stripped) of an analysis is the fixed literal above.
func TestFlatKernelCanonicalTrace(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS1v1(64))
	nt := timerLike(tm)
	nt.Obs = obs.New()
	nt.Analyze(d.Tree).Release()
	if got := string(obs.CanonicalTrace(nt.Obs.Records())); got != canonicalAnalyzeTrace {
		t.Fatalf("canonical trace diverged:\nwant:\n%s\ngot:\n%s", canonicalAnalyzeTrace, got)
	}
}

// TestFlatIncrementalMatchesReference drives the same chained ECO edits —
// displacements, detours, and re-parenting — through the kernel and the
// reference on every corpus design, with caches cold and warmed on the
// pre-edit topology, so dirty nets must miss on their fresh hash keys
// while clean nets hit.
func TestFlatIncrementalMatchesReference(t *testing.T) {
	names, designs, timers := diffCorpus(t)
	for i, d := range designs {
		rng := rand.New(rand.NewSource(71))
		tr := d.Tree.Clone()
		base := sta.ReferenceAnalyze(timers[i], tr)
		for trial := 0; trial < 8; trial++ {
			dirty := diffEdit(tr, rng, trial)
			if dirty == nil {
				continue
			}
			want := sta.ReferenceAnalyzeIncremental(timers[i], tr, base, dirty)
			warm := timerLike(timers[i])
			warm.Analyze(d.Tree).Release() // warm on the pre-edit topology
			got := warm.AnalyzeIncremental(tr, base, dirty)
			mustBitEqual(t, names[i]+"/incremental/warm", want, got)
			got.Release()
			cold := timerLike(timers[i])
			got = cold.AnalyzeIncremental(tr, base, dirty)
			mustBitEqual(t, names[i]+"/incremental/cold", want, got)
			got.Release()
			base = want
		}
	}
}

// diffEdit applies one ECO-style edit to tr, chosen by trial: a buffer
// displacement, a sink detour, or a sink re-parented to another buffer.
// It returns the dirty set to hand AnalyzeIncremental, or nil when the
// re-parenting found no legal target and left tr unchanged.
func diffEdit(tr *ctree.Tree, rng *rand.Rand, trial int) []ctree.NodeID {
	bufs := tr.Buffers()
	switch trial % 3 {
	case 0:
		b := bufs[rng.Intn(len(bufs))]
		tr.Node(b).Loc = tr.Node(b).Loc.Add(geom.Pt(-9, 14))
		return []ctree.NodeID{b}
	case 1:
		s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
		tr.Node(s).Detour += 25
		return []ctree.NodeID{s}
	default:
		s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
		old := tr.Driver(s)
		var target ctree.NodeID = ctree.NoNode
		for _, b := range bufs {
			if b != old && len(tr.FanoutPins(b)) > 0 {
				target = b
				break
			}
		}
		if target == ctree.NoNode || tr.ReassignParent(s, target) != nil {
			return nil
		}
		return []ctree.NodeID{s, old, target}
	}
}

// TestFlatScratchAliasing is the pooled-scratch safety property: analyze
// design A, then a different design B (reusing A's pooled buffers), then
// A again — the re-analysis must be byte-identical to the first, proving
// no state bleeds through the pools. Released analyses force maximal
// buffer reuse.
func TestFlatScratchAliasing(t *testing.T) {
	dA, tmA := buildCase(t, testgen.CLS1v1(90))
	dB, tmB := buildCase(t, testgen.CLS2v1(150))
	ta := timerLike(tmA)
	tb := timerLike(tmB)
	first := ta.Analyze(dA.Tree)
	snapshot := cloneAnalysis(first)
	first.Release()
	tb.Analyze(dB.Tree).Release()
	ta.FlushNetCache() // rebuild A's views through reused build scratch too
	again := ta.Analyze(dA.Tree)
	mustBitEqual(t, "A/B/A reuse", snapshot, again)
	again.Release()
}

// cloneAnalysis deep-copies an Analysis so it survives Release.
func cloneAnalysis(a *sta.Analysis) *sta.Analysis {
	c := &sta.Analysis{K: a.K, MaxLat: append([]float64(nil), a.MaxLat...)}
	for k := 0; k < a.K; k++ {
		c.Arrive = append(c.Arrive, append([]float64(nil), a.Arrive[k]...))
		c.Slew = append(c.Slew, append([]float64(nil), a.Slew[k]...))
	}
	return c
}

// TestFlatSharedCacheBitIdentical pins the cross-timer reuse path: two
// timers over the same technology view sharing one NetCache must produce
// the same bits as isolated timers, and the second timer's analysis must
// run without a single miss.
func TestFlatSharedCacheBitIdentical(t *testing.T) {
	base, _ := exp.Technology()
	view, err := base.SubCorners("c0", "c1", "c3")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := buildCase(t, testgen.CLS1v1(120))
	want := sta.ReferenceAnalyze(sta.New(view), d.Tree)

	shared := sta.NewNetCache()
	t1 := sta.New(view)
	t1.SharedCache = shared
	a1 := t1.Analyze(d.Tree)
	mustBitEqual(t, "shared/first", want, a1)
	if s := t1.CacheStats(); s.Misses == 0 {
		t.Fatalf("first timer should miss cold: %+v", s)
	}
	t2 := sta.New(view)
	t2.SharedCache = shared
	a2 := t2.Analyze(d.Tree)
	mustBitEqual(t, "shared/second", want, a2)
	if s := t2.CacheStats(); s.Misses != 0 || s.Hits == 0 {
		t.Fatalf("second timer should run fully warm off the shared cache: %+v", s)
	}
	a1.Release()
	a2.Release()
}
