package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/rctree"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// referenceStageFeatures is the per-(driver, pin) stage estimator the
// production path replaced, kept as the oracle its differential test
// compares against: every stage rebuilds both routes' RC trees at every
// corner through rctree.Builder, walking each route with a map-keyed BFS.
func referenceStageFeatures(t *tech.Tech, tr *ctree.Tree, d, pin ctree.NodeID, slews []float64) [][]float64 {
	dn := tr.Node(d)
	cell := t.CellByName(dn.CellName)
	pins := tr.FanoutPins(d)
	locs := make([]geom.Point, 0, len(pins)+1)
	locs = append(locs, dn.Loc)
	pinIdx := -1
	for i, p := range pins {
		locs = append(locs, tr.Node(p).Loc)
		if p == pin {
			pinIdx = i + 1
		}
	}
	feats := zeroRows(len(slews), numStageFeatures)
	if pinIdx < 0 || cell == nil {
		return feats
	}
	routes := [2]*route.Tree{route.RSMT(locs), route.SingleTrunk(locs)}
	for _, rt := range routes {
		for i, p := range pins {
			rt.AddPinDetour(i+1, tr.Node(p).Detour)
		}
	}
	bb := geom.BBox(locs)
	for k, f := range feats {
		for topo, rt := range routes {
			rc, pinNode := referenceRouteToRC(t, tr, rt, pins, k)
			gate := referencePairDelay(t, cell, k, slews[k], rc.TotalCap())
			m1, m2 := rc.Moments()
			ri := pinNode[pinIdx]
			f[2*topo] = gate + m1[ri]                       // Elmore
			f[2*topo+1] = gate + rctree.D2M(m1[ri], m2[ri]) // D2M
		}
		f[4] = float64(len(pins))
		f[5] = bb.Area()
		f[6] = bb.AspectRatio()
		f[7] = slews[k]
		f[8] = cell.InCap // proxy for drive strength
	}
	return feats
}

// referencePairDelay is the table-model inverter-pair delay at a net load:
// the first inverter into the internal wire, then the second at the load,
// every lookup made per call.
func referencePairDelay(t *tech.Tech, cell *tech.Cell, k int, slewIn, loadFF float64) float64 {
	internalC := sta.InternalPairWireUM * t.WireC(k)
	load1 := cell.InCap + internalC
	d1 := cell.TableDelayPS(k, slewIn, load1)
	s1 := cell.TableOutSlewPS(k, slewIn, load1)
	return d1 + cell.TableDelayPS(k, s1, loadFF)
}

// zeroRows returns n zeroed rows of the given width over one backing array;
// each row's capacity ends at its width, so appending to one never
// overwrites the next.
func zeroRows(n, width int) [][]float64 {
	buf := make([]float64, n*width)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// referenceRouteToRC converts a routing tree into an RC tree at corner k,
// attaching pin loads. It returns the RC and the rc-node index per route
// pin index.
func referenceRouteToRC(t *tech.Tech, tr *ctree.Tree, rt *route.Tree, pins []ctree.NodeID, k int) (*rctree.RC, map[int]int) {
	b := rctree.NewBuilder(0)
	rcOf := map[int]int{0: 0}
	pinNode := map[int]int{0: 0}
	// BFS so parents are materialized first.
	queue := rt.Children(0)
	for len(queue) > 0 {
		ri := queue[0]
		queue = queue[1:]
		rn := rt.Nodes[ri]
		end := b.AddWire(rcOf[rn.Parent], rn.EdgeLen, t.WireR(k), t.WireC(k))
		rcOf[ri] = end
		if rn.Pin >= 1 {
			pinNode[rn.Pin] = end
			pn := tr.Node(pins[rn.Pin-1])
			switch pn.Kind {
			case ctree.KindBuffer:
				if c := t.CellByName(pn.CellName); c != nil {
					b.AddLoad(end, c.InCap)
				}
			case ctree.KindSink:
				b.AddLoad(end, t.SinkCap)
			}
		}
		queue = append(queue, rt.Children(ri)...)
	}
	return b.Done(), pinNode
}

// estimatorCase is one design of the estimator's differential corpus.
type estimatorCase struct {
	name string
	tr   *ctree.Tree
	die  geom.Rect
	tm   *sta.Timer
}

// estimatorCorpus is the STA differential corpus (sta/differential_test.go):
// the three benchmark classes at two sizes each, a reseeded placement, and
// a congested four-corner training case.
func estimatorCorpus(t *testing.T) []estimatorCase {
	t.Helper()
	base, _ := testTech(t)
	reseeded := testgen.CLS1v2(72)
	reseeded.Seed = 4242
	reseeded.Name = "CLS1v2-s4242"
	var out []estimatorCase
	for _, v := range []testgen.Variant{
		testgen.CLS1v1(48), testgen.CLS1v1(140),
		testgen.CLS1v2(64), testgen.CLS2v1(80), testgen.CLS2v1(180),
		reseeded,
	} {
		d, tm, err := testgen.Build(base, v)
		if err != nil {
			t.Fatalf("building %s: %v", v.Name, err)
		}
		out = append(out, estimatorCase{fmt.Sprintf("%s(%d)", v.Name, v.NumFFs), d.Tree, d.Die, tm})
	}
	th := tech.Default28nm()
	tc := testgen.NewTrainingCase(th, rand.New(rand.NewSource(23)))
	tm := sta.New(th)
	tm.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, 9)
	return append(out, estimatorCase{"training-4corner", tc.Tree, tc.Die, tm})
}

// sampleMoves takes up to perType evenly spaced moves of each Table-2
// type from the moves enumerated on every buffer of the tree.
func sampleMoves(tr *ctree.Tree, th *tech.Tech, die geom.Rect, perType int) []eco.Move {
	byType := map[eco.MoveType][]eco.Move{}
	for _, b := range tr.Buffers() {
		for _, mv := range eco.Enumerate(tr, th, b, die) {
			byType[mv.Type] = append(byType[mv.Type], mv)
		}
	}
	var out []eco.Move
	for _, ty := range []eco.MoveType{eco.TypeI, eco.TypeII, eco.TypeIII} {
		ms := byType[ty]
		step := len(ms)/perType + 1
		for i := 0; i < len(ms); i += step {
			out = append(out, ms[i])
		}
	}
	return out
}

// goldenSlews returns the estimator's per-corner driver input slews at d:
// the analysis slew, or the default source slew where it holds none.
func goldenSlews(a *sta.Analysis, d ctree.NodeID) []float64 {
	slews := make([]float64, a.K)
	for k := range slews {
		slews[k] = a.Slew[k][d]
		if math.IsNaN(slews[k]) {
			slews[k] = sta.DefaultSourceSlew
		}
	}
	return slews
}

// requireNetMatchesReference compares the production estimate of every
// stage of d's net with the reference, bit for bit, at every corner.
func requireNetMatchesReference(t *testing.T, label string, th *tech.Tech, tr *ctree.Tree, d ctree.NodeID, slews []float64) int {
	t.Helper()
	pins := tr.FanoutPins(d)
	got := StageFeatures(th, tr, d, pins, slews, nil)
	if len(got) != len(pins)*len(slews)*numStageFeatures {
		t.Fatalf("%s: net %d: %d values for %d pins", label, d, len(got), len(pins))
	}
	for i, pin := range pins {
		want := referenceStageFeatures(th, tr, d, pin, slews)
		for k := range want {
			row := got[(i*len(slews)+k)*numStageFeatures:]
			for f := range want[k] {
				if math.Float64bits(row[f]) != math.Float64bits(want[k][f]) {
					t.Fatalf("%s: stage %d→%d corner %d feature %d: got %v, reference %v",
						label, d, pin, k, f, row[f], want[k][f])
				}
			}
		}
	}
	return len(pins)
}

// TestStageFeaturesMatchReference holds the production stage estimator
// bitwise equal to the reference on every stage of every design in the
// corpus, and on the nets a sample of Type I, II and III moves changes in
// the post-move trees: moved pins, resized loads, and the stages surgery
// creates.
func TestStageFeaturesMatchReference(t *testing.T) {
	const perType = 12
	types := map[eco.MoveType]int{}
	for _, c := range estimatorCorpus(t) {
		th := c.tm.Tech
		a := c.tm.Analyze(c.tr)
		stages, moved := 0, 0
		for _, d := range append([]ctree.NodeID{c.tr.Source}, c.tr.Buffers()...) {
			stages += requireNetMatchesReference(t, c.name, th, c.tr, d, goldenSlews(a, d))
		}
		lg := legalize.New(c.die, th.SiteW, th.RowH)
		moves := sampleMoves(c.tr, th, c.die, perType)
		for _, mv := range moves {
			post := c.tr.Clone()
			if err := eco.Apply(post, th, lg, mv); err != nil {
				continue
			}
			types[mv.Type]++
			moved++
			label := fmt.Sprintf("%s/%s", c.name, mv)
			for _, net := range affectedStages(post, mv) {
				stages += requireNetMatchesReference(t, label, th, post, net.d, goldenSlews(a, net.d))
			}
		}
		t.Logf("%s: %d corners, %d moves, %d stages match", c.name, a.K, moved, stages)
	}
	if types[eco.TypeI] == 0 || types[eco.TypeII] == 0 || types[eco.TypeIII] == 0 {
		t.Fatalf("applied moves per type %v; want every type", types)
	}
}
