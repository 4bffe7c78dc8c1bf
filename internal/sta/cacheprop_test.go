// Cache-staleness and incremental-chaining properties driven by real ECO
// moves. These live in package sta_test because eco (via lut) imports sta.
package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// deepTree mirrors the in-package incremental tests' topology: three
// branches of buffer chains fanning out to sinks.
func deepTree(rng *rand.Rand) *ctree.Tree {
	tr := ctree.NewTree(geom.Pt(0, 400), "CKINVX16")
	for g := 0; g < 3; g++ {
		top := tr.AddNode(ctree.KindBuffer,
			geom.Pt(140, 200+float64(g)*180), "CKINVX8", tr.Source)
		for l := 0; l < 2; l++ {
			mid := tr.AddNode(ctree.KindBuffer,
				geom.Pt(280, top.Loc.Y-60+float64(l)*120), "CKINVX4", top.ID)
			leaf := tr.AddNode(ctree.KindBuffer,
				geom.Pt(420, mid.Loc.Y), "CKINVX4", mid.ID)
			for i := 0; i < 6; i++ {
				tr.AddNode(ctree.KindSink,
					geom.Pt(460+rng.Float64()*60, leaf.Loc.Y-30+rng.Float64()*60), "", leaf.ID)
			}
		}
	}
	return tr
}

// dirtyForMove lists the nodes whose driving nets an applied ECO move
// changed — the set a local-optimization caller hands AnalyzeIncremental.
func dirtyForMove(m eco.Move) []ctree.NodeID {
	switch m.Type {
	case eco.TypeII:
		return []ctree.NodeID{m.Buffer, m.Child}
	case eco.TypeIII:
		return []ctree.NodeID{m.Child, m.Buffer, m.NewDrv}
	default:
		return []ctree.NodeID{m.Buffer}
	}
}

func maxAnalysisDiff(a, b *sta.Analysis, tr *ctree.Tree) (arr, slew float64) {
	for k := 0; k < a.K; k++ {
		for _, id := range tr.Topo() {
			x, y := a.Arrive[k][id], b.Arrive[k][id]
			if math.IsNaN(x) != math.IsNaN(y) {
				return math.Inf(1), math.Inf(1)
			}
			if !math.IsNaN(x) {
				if d := math.Abs(x - y); d > arr {
					arr = d
				}
			}
			sx, sy := a.Slew[k][id], b.Slew[k][id]
			if !math.IsNaN(sx) && !math.IsNaN(sy) {
				if d := math.Abs(sx - sy); d > slew {
					slew = d
				}
			}
		}
	}
	return arr, slew
}

// Property: a long-lived timer whose net cache was warmed on earlier
// topologies never serves a stale entry — after every applied ECO move its
// analysis is bit-identical to a fresh cold timer's.
func TestNetCacheNeverStaleParallelProperty(t *testing.T) {
	th := tech.Default28nm()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(600, 600))
	lg := legalize.New(die, th.SiteW, th.RowH)
	rng := rand.New(rand.NewSource(23))
	warm := sta.New(th)
	for trial := 0; trial < 5; trial++ {
		tr := deepTree(rng)
		warm.Analyze(tr) // seed the cache with the pre-move topology
		applied := 0
		for att := 0; att < 200 && applied < 8; att++ {
			bufs := tr.Buffers()
			moves := eco.Enumerate(tr, th, bufs[rng.Intn(len(bufs))], die)
			if len(moves) == 0 {
				continue
			}
			if eco.Apply(tr, th, lg, moves[rng.Intn(len(moves))]) != nil {
				continue
			}
			applied++
			fresh := sta.New(th) // cold cache
			mustBitEqual(t, "warm-vs-fresh", fresh.Analyze(tr), warm.Analyze(tr))
		}
		if applied == 0 {
			t.Fatalf("trial %d: no ECO move applied", trial)
		}
	}
}

// Property: chained incremental analyses through the cached timer track a
// full re-analysis after every applied ECO move, the way the local
// optimizer uses them — within the slew-convergence tolerance, accumulated
// over the chain.
func TestIncrementalParallelAfterMovesProperty(t *testing.T) {
	th := tech.Default28nm()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(600, 600))
	lg := legalize.New(die, th.SiteW, th.RowH)
	rng := rand.New(rand.NewSource(41))
	tm := sta.New(th)
	for trial := 0; trial < 5; trial++ {
		tr := deepTree(rng)
		base := tm.Analyze(tr)
		applied := 0
		for att := 0; att < 200 && applied < 6; att++ {
			bufs := tr.Buffers()
			moves := eco.Enumerate(tr, th, bufs[rng.Intn(len(bufs))], die)
			if len(moves) == 0 {
				continue
			}
			mv := moves[rng.Intn(len(moves))]
			if eco.Apply(tr, th, lg, mv) != nil {
				continue
			}
			applied++
			inc := tm.AnalyzeIncremental(tr, base, dirtyForMove(mv))
			full := tm.Analyze(tr)
			arrD, slewD := maxAnalysisDiff(full, inc, tr)
			tol := 0.05 * float64(applied)
			if arrD > tol || slewD > tol {
				t.Fatalf("trial %d: after %d chained moves incremental diverges: arr %.4f ps, slew %.4f ps (tol %.2f)",
					trial, applied, arrD, slewD, tol)
			}
			base = inc // chain, as the local optimizer does
		}
		if applied == 0 {
			t.Fatalf("trial %d: no ECO move applied", trial)
		}
	}
}
