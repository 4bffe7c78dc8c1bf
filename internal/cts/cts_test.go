package cts

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

func timer() *sta.Timer { return sta.New(tech.Default28nm()) }

func randomSinks(rng *rand.Rand, n int, die geom.Rect) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(
			die.Lo.X+rng.Float64()*die.W(),
			die.Lo.Y+rng.Float64()*die.H(),
		)
	}
	return out
}

func TestSynthesizeErrors(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	if _, err := Synthesize(tm, die, geom.Pt(0, 0), nil, Options{}); err == nil {
		t.Error("no sinks accepted")
	}
	// A technology without the recipe's buffer cell.
	th := *tm.Tech
	th.Cells = nil
	for _, c := range tm.Tech.Cells {
		if c.Name != bufferCell {
			th.Cells = append(th.Cells, c)
		}
	}
	_, err := Synthesize(sta.New(&th), die, geom.Pt(0, 0), []geom.Point{geom.Pt(1, 1)}, Options{})
	if err == nil || !strings.Contains(err.Error(), bufferCell) {
		t.Errorf("missing buffer cell: err = %v", err)
	}
}

func TestSynthesizeSingleSink(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tr, err := Synthesize(tm, die, geom.Pt(0, 0), []geom.Point{geom.Pt(80, 80)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sinks()) != 1 {
		t.Fatalf("sinks = %d", len(tr.Sinks()))
	}
	a := tm.Analyze(tr)
	if a.MaxLat[0] <= 0 {
		t.Error("zero latency")
	}
}

func TestSynthesizeMediumDesign(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(800, 800))
	rng := rand.New(rand.NewSource(42))
	sinks := randomSinks(rng, 300, die)
	tr, err := Synthesize(tm, die, geom.Pt(400, 0), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != 300 {
		t.Fatalf("sinks = %d", got)
	}
	// Design rules hold at the nominal corner.
	cv, sv := tm.Violations(tr)
	if cv != 0 {
		t.Errorf("cap violations = %d", cv)
	}
	if sv != 0 {
		t.Errorf("slew violations = %d", sv)
	}
	// Balancing: nominal-corner skew must be a small fraction of latency.
	a := tm.Analyze(tr)
	var maxL, minL = math.Inf(-1), math.Inf(1)
	for _, s := range tr.Sinks() {
		l := a.Latency(0, s)
		maxL = math.Max(maxL, l)
		minL = math.Min(minL, l)
	}
	if skew := maxL - minL; skew > 0.25*maxL {
		t.Errorf("post-CTS skew %v too large vs latency %v", skew, maxL)
	}
	// Fanout bound: every driving node has a bounded number of fanout pins.
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n.Kind != ctree.KindBuffer && n.Kind != ctree.KindSource {
			continue
		}
		if f := len(tr.FanoutPins(id)); f > 20 {
			t.Errorf("node %d fanout %d exceeds leaf bound", id, f)
		}
	}
}

func TestRepeaterInsertionBoundsEdgeLength(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 100))
	// Far-away cluster forces long top-level edges.
	sinks := []geom.Point{
		geom.Pt(1900, 50), geom.Pt(1910, 60), geom.Pt(1920, 40),
		geom.Pt(100, 50), geom.Pt(110, 60),
	}
	tr, err := Synthesize(tm, die, geom.Pt(0, 50), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n.Kind != ctree.KindBuffer {
			continue
		}
		p := tr.Node(n.Parent)
		if d := p.Loc.Manhattan(n.Loc); d > 140+1e-9 { // repeatDist + legalizer slack
			t.Errorf("edge to buffer %d is %v µm, repeaters missing", id, d)
		}
	}
}

func TestBalancingReducesSkew(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(600, 600))
	rng := rand.New(rand.NewSource(7))
	sinks := randomSinks(rng, 120, die)
	// Synthesize with balancing disabled-ish (1 iteration) vs full.
	rough, err := Synthesize(tm, die, geom.Pt(0, 0), sinks, Options{BalanceIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Synthesize(tm, die, geom.Pt(0, 0), sinks, Options{BalanceIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	skew := func(tr *ctree.Tree) float64 {
		a := tm.Analyze(tr)
		maxL, minL := math.Inf(-1), math.Inf(1)
		for _, s := range tr.Sinks() {
			l := a.Latency(0, s)
			maxL = math.Max(maxL, l)
			minL = math.Min(minL, l)
		}
		return maxL - minL
	}
	if skew(fine) >= skew(rough) {
		t.Errorf("more balancing iterations did not reduce skew: %v vs %v", skew(fine), skew(rough))
	}
}

func TestMCMMvsMCSM(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(600, 600))
	rng := rand.New(rand.NewSource(9))
	sinks := randomSinks(rng, 100, die)
	mcsm, err := Synthesize(tm, die, geom.Pt(300, 0), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mcmm, err := Synthesize(tm, die, geom.Pt(300, 0), sinks, Options{MCMM: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both produce valid balanced trees; they should differ (different
	// balancing objective ⇒ different detours).
	var diff bool
	for i := range mcsm.Nodes {
		a, b := mcsm.Node(ctree.NodeID(i)), mcmm.Node(ctree.NodeID(i))
		if a != nil && b != nil && a.Detour != b.Detour {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("MCMM and MCSM balancing produced identical detours")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(500, 500))
	rng := rand.New(rand.NewSource(3))
	sinks := randomSinks(rng, 80, die)
	t1, err := Synthesize(tm, die, geom.Pt(0, 0), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Synthesize(tm, die, geom.Pt(0, 0), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if t1.NumNodes() != t2.NumNodes() {
		t.Fatal("node counts differ")
	}
	for i := range t1.Nodes {
		a, b := t1.Node(ctree.NodeID(i)), t2.Node(ctree.NodeID(i))
		if (a == nil) != (b == nil) {
			t.Fatal("structure differs")
		}
		if a != nil && (!a.Loc.Eq(b.Loc) || a.Detour != b.Detour || a.CellName != b.CellName) {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestClusterLoadRespected(t *testing.T) {
	tm := timer()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(400, 400))
	rng := rand.New(rand.NewSource(13))
	sinks := randomSinks(rng, 200, die)
	tr, err := Synthesize(tm, die, geom.Pt(0, 0), sinks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := tm.Tech.Nominal
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n.Kind != ctree.KindBuffer && n.Kind != ctree.KindSource {
			continue
		}
		if load := tm.NetLoad(tr, id, k); load > tm.Tech.MaxLoad {
			t.Errorf("node %d load %v exceeds MaxLoad", id, load)
		}
	}
}
