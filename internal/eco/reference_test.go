package eco

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/lut"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// referenceSelect is the Algorithm-1 search as it was before the head
// table: every candidate re-estimated corner by corner through Estimate,
// with a fresh estimate slice each. Select must match it bit for bit.
func referenceSelect(r *Rebuilder, directUM float64, endLoad float64, dlp []float64) (*Solution, error) {
	if len(dlp) != r.T.NumCorners() {
		return nil, fmt.Errorf("eco: %d delay targets for %d corners", len(dlp), r.T.NumCorners())
	}
	best := &Solution{Err: math.Inf(1)}
	errOf := func(est []float64) float64 {
		var err float64
		for k := range dlp {
			err += math.Abs(est[k] - dlp[k])
		}
		for k := range dlp {
			for k2 := k + 1; k2 < len(dlp); k2++ {
				err += math.Abs((est[k] - est[k2]) - (dlp[k] - dlp[k2]))
			}
		}
		return err
	}
	consider := func(p int, q float64, u int) {
		eff := q
		if minSpacing := directUM / float64(u+1); eff < minSpacing {
			eff = minSpacing
		}
		if eff > 2*lut.SpacingMax {
			return
		}
		est := make([]float64, len(dlp))
		for k := range dlp {
			est[k] = r.Estimate(p, eff, u, k, endLoad)
		}
		if err := errOf(est); err < best.Err {
			best = &Solution{CellIdx: p, SpacingUM: eff, Pairs: u,
				DetourUM: math.Max(0, eff*float64(u+1)-directUM), Err: err}
		}
	}
	for _, f := range []float64{1, 1.15, 1.3, 1.5} {
		length := directUM * f
		est := make([]float64, len(dlp))
		for k := range dlp {
			est[k] = r.Estimate(0, length, 0, k, endLoad)
		}
		if err := errOf(est); err < best.Err {
			best = &Solution{CellIdx: 0, SpacingUM: length, Pairs: 0,
				DetourUM: length - directUM, Err: err}
		}
	}
	for p := range r.T.Cells {
		for qi := 0; qi < len(r.Char.Spacings); qi += 2 {
			q := r.Char.Spacings[qi]
			uniform := r.Char.Uniform(p, qi, r.T.Nominal)
			if uniform <= 0 {
				continue
			}
			uest := int(math.Round(dlp[r.T.Nominal] / uniform))
			lo := uest - 2
			if lo < 1 {
				lo = 1
			}
			for u := lo; u <= uest+2 && u <= 64; u++ {
				consider(p, q, u)
			}
		}
	}
	if math.IsInf(best.Err, 1) {
		return nil, fmt.Errorf("eco: no feasible insertion for arc (direct %.1fµm)", directUM)
	}
	return best, nil
}

// referenceSelectTrim is SelectTrim as it was: one estimate slice per
// 2µm step and one solution per improvement.
func referenceSelectTrim(r *Rebuilder, tr *ctree.Tree, arc *ctree.Arc, arcD, dlp []float64, endLoad, maxExtra float64) (*TrimSolution, error) {
	if len(arcD) != r.T.NumCorners() || len(dlp) != len(arcD) {
		return nil, fmt.Errorf("eco: trim target/corner mismatch")
	}
	if maxExtra <= 0 {
		maxExtra = 400
	}
	slopes := r.TrimSlopes(tr, arc, endLoad)
	budget := ArcDetourBudget(tr, arc)
	errAt := func(extra float64) float64 {
		est := make([]float64, len(arcD))
		var err float64
		for k := range arcD {
			est[k] = arcD[k] + slopes[k]*extra
			err += math.Abs(est[k] - dlp[k])
		}
		for k := range arcD {
			for k2 := k + 1; k2 < len(arcD); k2++ {
				err += math.Abs((est[k] - est[k2]) - (dlp[k] - dlp[k2]))
			}
		}
		return err
	}
	best := &TrimSolution{ExtraUM: 0, Err: errAt(0)}
	for extra := -budget; extra <= maxExtra; extra += 2 {
		if e := errAt(extra); e < best.Err {
			best = &TrimSolution{ExtraUM: extra, Err: e}
		}
	}
	if best.ExtraUM == 0 {
		return nil, fmt.Errorf("eco: no trim improves on the current arc")
	}
	return best, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSelect requires Select and referenceSelect to agree on one input:
// both fail, or both return the same solution bit for bit.
func checkSelect(t *testing.T, r *Rebuilder, direct, endLoad float64, dlp []float64) {
	t.Helper()
	got, gerr := r.Select(direct, endLoad, dlp)
	want, werr := referenceSelect(r, direct, endLoad, dlp)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Select(%v, %v, %v): error %v, reference %v", direct, endLoad, dlp, gerr, werr)
	}
	if werr != nil {
		return
	}
	if got.CellIdx != want.CellIdx || got.Pairs != want.Pairs ||
		!sameBits(got.SpacingUM, want.SpacingUM) || !sameBits(got.DetourUM, want.DetourUM) ||
		!sameBits(got.Err, want.Err) {
		t.Fatalf("Select(%v, %v, %v) = %+v, reference %+v", direct, endLoad, dlp, *got, *want)
	}
}

// endLoads lists Select's end loads worth sweeping: the sink cap, every
// cell's input cap, the branch-tap default, and a few random values.
func endLoads(th *tech.Tech, rng *rand.Rand) []float64 {
	loads := []float64{th.SinkCap, 3.0}
	for _, c := range th.Cells {
		loads = append(loads, c.InCap)
	}
	for i := 0; i < 3; i++ {
		loads = append(loads, 0.5+40*rng.Float64())
	}
	return loads
}

// TestSelectMatchesReference sweeps direct lengths from 5 to 900µm, the end
// loads above, and targets near and far from stage delays at every corner,
// for the full technology and for a three-corner view of it over the same
// LUTs (the full-flow shape). -short sweeps every third direct length.
func TestSelectMatchesReference(t *testing.T) {
	th, ch, lg := env(t)
	step := 38.5
	if testing.Short() {
		step *= 3
	}
	view, err := th.SubCorners("c0", "c1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, r := range []*Rebuilder{NewRebuilder(th, ch, lg), NewRebuilder(view, ch, lg)} {
		K := r.T.NumCorners()
		loads := endLoads(r.T, rng)
		n := 0
		for direct := 5.0; direct <= 900; direct += step {
			for _, load := range loads {
				// Targets around the delay of u pairs of cell p at 60µm,
				// scaled from far below to far above, per corner.
				for _, scale := range []float64{0.3, 0.97, 1, 1.04, 2.5} {
					p, u := n%len(r.T.Cells), 1+n%5
					n++
					dlp := make([]float64, K)
					for k := range dlp {
						dlp[k] = scale * r.Estimate(p, 60, u, k, load) * (1 + 0.05*rng.NormFloat64())
					}
					checkSelect(t, r, direct, load, dlp)
				}
				// Uncorrelated random targets, including negative ones.
				dlp := make([]float64, K)
				for k := range dlp {
					dlp[k] = -20 + 600*rng.Float64()
				}
				checkSelect(t, r, direct, load, dlp)
			}
		}
	}
}

// FuzzSelectMatchesReference checks Select against referenceSelect on
// fuzzed direct lengths, end loads and per-corner targets.
func FuzzSelectMatchesReference(f *testing.F) {
	f.Add(300.0, 1.0, 120.0, 150.0, 100.0, 90.0)
	f.Add(5.0, 3.0, 10.0, 12.0, 9.0, 8.0)
	f.Add(900.0, 16.8, 600.0, 700.0, 500.0, 450.0)
	f.Add(450.0, 0.2, -5.0, 0.0, 1e3, 40.0)
	f.Fuzz(func(t *testing.T, direct, load, d0, d1, d2, d3 float64) {
		th, ch, lg := env(t)
		for _, v := range []float64{direct, load, d0, d1, d2, d3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e5 {
				t.Skip()
			}
		}
		if direct < 1 || direct > 2000 || load <= 0 || load > 100 {
			t.Skip()
		}
		checkSelect(t, NewRebuilder(th, ch, lg), direct, load, []float64{d0, d1, d2, d3})
	})
}

// TestSelectTrimMatchesReference compares SelectTrim with its reference
// over negative, zero and capped maxExtra, on the snaked chain and on an
// unsnaked one.
func TestSelectTrimMatchesReference(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	rng := rand.New(rand.NewSource(7))
	snaked, _ := snakeTree()
	plain, _ := chainTree()
	for _, tr := range []*ctree.Tree{snaked, plain} {
		seg := ctree.Segment(tr)
		arc := seg.Arcs[0]
		arcD := sta.ArcDelays(tm.Analyze(tr), seg)[0]
		slopes := r.TrimSlopes(tr, arc, th.SinkCap)
		for i := 0; i < 40; i++ {
			want := -90 + 300*rng.Float64()
			dlp := make([]float64, len(arcD))
			for k := range dlp {
				dlp[k] = arcD[k] + slopes[k]*want + rng.NormFloat64()
			}
			if i == 0 {
				copy(dlp, arcD) // nothing improves: both must fail alike
			}
			for _, maxExtra := range []float64{-5, 0, 0.5, 30, 150} {
				got, gerr := r.SelectTrim(tr, arc, arcD, dlp, th.SinkCap, maxExtra)
				ref, rerr := referenceSelectTrim(r, tr, arc, arcD, dlp, th.SinkCap, maxExtra)
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("maxExtra %v: error %v, reference %v", maxExtra, gerr, rerr)
				}
				if gerr != nil {
					if !errors.Is(gerr, errNoTrim) {
						t.Fatalf("maxExtra %v: error %v, want errNoTrim", maxExtra, gerr)
					}
					continue
				}
				if !sameBits(got.ExtraUM, ref.ExtraUM) || !sameBits(got.Err, ref.Err) {
					t.Fatalf("maxExtra %v: trim %+v, reference %+v", maxExtra, *got, *ref)
				}
			}
		}
	}
}

// TestNearestSpacingIdxOnGrid pins what Select's head table relies on:
// every grid spacing maps back to its own index.
func TestNearestSpacingIdxOnGrid(t *testing.T) {
	_, ch, _ := env(t)
	for qi, q := range ch.Spacings {
		if got := nearestSpacingIdx(q); got != qi {
			t.Errorf("nearestSpacingIdx(%v) = %d, want %d", q, got, qi)
		}
	}
}
