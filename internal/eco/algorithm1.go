package eco

import (
	"fmt"
	"math"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/lut"
	"skewvar/internal/tech"
)

// Rebuilder implements the paper's Algorithm 1 (LP-guided ECO flow): for
// every arc with an LP delay target, remove the existing inverter pairs,
// search the characterized LUTs for the (gate size, spacing, pair count)
// whose estimated per-corner delays minimize the combined error of lines
// 8–13, and re-insert uniformly placed pairs with a U-shaped routing detour
// when the solution requires more wire than the direct run.
type Rebuilder struct {
	T    *tech.Tech
	Char *lut.Char
	Lg   *legalize.Legalizer
}

// spacingStride subsamples the LUT spacing grid during the search: every
// second characterized spacing, 10µm apart.
const spacingStride int = 2

// NewRebuilder returns a Rebuilder over a technology's characterized LUTs.
func NewRebuilder(t *tech.Tech, ch *lut.Char, lg *legalize.Legalizer) *Rebuilder {
	return &Rebuilder{T: t, Char: ch, Lg: lg}
}

// Solution is a chosen (size, spacing, count) inverter-pair insertion.
type Solution struct {
	CellIdx   int
	SpacingUM float64 // effective (possibly stretched) spacing
	Pairs     int
	DetourUM  float64 // total extra wire vs. the direct run
	Err       float64 // Algorithm-1 combined error
}

// Estimate predicts the rebuilt arc delay at corner k for a candidate
// (cell p, effective spacing q, u pairs) over a direct length with the given
// end load — LUTdetail for the first and last stages, LUTuniform for the
// middle (Figure 3).
func (r *Rebuilder) Estimate(p int, q float64, u, k int, endLoad float64) float64 {
	cell := r.T.Cells[p]
	if u == 0 {
		d, _ := r.Char.WireDelay(k, q, endLoad)
		return d
	}
	// Wire from the top anchor to the first pair.
	first, _ := r.Char.WireDelay(k, q, cell.InCap)
	slew := r.Char.SteadySlew(p, nearestSpacingIdx(q), k)
	total := first
	if u == 1 {
		d, _ := r.Char.DetailStage(p, q, k, slew, endLoad)
		return total + d
	}
	dFirst, slewOut := r.Char.DetailStage(p, q, k, slew, cell.InCap)
	total += dFirst
	if u > 2 {
		total += float64(u-2) * r.Char.UniformAt(p, q, k)
	}
	dLast, _ := r.Char.DetailStage(p, q, k, slewOut, endLoad)
	return total + dLast
}

func nearestSpacingIdx(q float64) int {
	i := int((q - lut.SpacingMin) / lut.SpacingStep)
	max := int((lut.SpacingMax - lut.SpacingMin) / lut.SpacingStep)
	if i < 0 {
		return 0
	}
	if i > max {
		return max
	}
	return i
}

// algorithm1Err is the combined error of lines 8–13: per-corner delay
// error plus the error of every corner-pair delay difference.
func algorithm1Err(est, dlp []float64) float64 {
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

// Select runs the Algorithm-1 search (lines 3–18) for one arc: it scans gate
// sizes × spacings, estimates the required pair count from LUTuniform at the
// nominal corner, probes uest±2, and returns the minimum-error solution.
//
// Each candidate's estimate is Estimate's, summed in Estimate's order. At
// a grid spacing the head (first wire, first pair) comes from the LUTs'
// head table and the last stage is computed once per (cell, spacing) for
// one pair and once for two or more. A spacing stretched to cover the
// direct run is the same for every grid spacing below it, so a repeated
// (cell, pair count) would repeat an estimate that cannot win under the
// strict < and is skipped.
func (r *Rebuilder) Select(directUM float64, endLoad float64, dlp []float64) (*Solution, error) {
	K := r.T.NumCorners()
	if len(dlp) != K {
		return nil, fmt.Errorf("eco: %d delay targets for %d corners", len(dlp), K)
	}
	// est holds the candidate's per-corner estimate; last1 and lastN hold
	// the last stage at the current grid spacing for one pair and for two
	// or more.
	buf := make([]float64, 3*K)
	est, last1, lastN := buf[:K], buf[K:2*K], buf[2*K:]
	best := Solution{Err: math.Inf(1)}
	// Bare-wire options (full buffer removal), with optional snaking.
	for _, f := range []float64{1, 1.15, 1.3, 1.5} {
		length := directUM * f
		for k := range est {
			est[k] = r.Estimate(0, length, 0, k, endLoad)
		}
		if err := algorithm1Err(est, dlp); err < best.Err {
			best = Solution{CellIdx: 0, SpacingUM: length, Pairs: 0,
				DetourUM: length - directUM, Err: err}
		}
	}
	nom := r.T.Nominal
	for p := range r.T.Cells {
		var stretched uint64 // bit u-1: (p, u) already tried stretched
		for qi := 0; qi < len(r.Char.Spacings); qi += spacingStride {
			q := r.Char.Spacings[qi]
			uniform := r.Char.Uniform(p, qi, nom)
			if uniform <= 0 {
				continue
			}
			uest := int(math.Round(dlp[nom] / uniform))
			lo := uest - 2
			if lo < 1 {
				lo = 1
			}
			have1, haveN := false, false
			for u := lo; u <= uest+2 && u <= 64; u++ {
				// u pairs ⇒ u+1 segments; the wire must at least cover the
				// direct run.
				eff := q
				if minSpacing := directUM / float64(u+1); eff < minSpacing {
					bit := uint64(1) << (u - 1)
					if stretched&bit != 0 {
						continue
					}
					stretched |= bit
					eff = minSpacing
					if eff > 2*lut.SpacingMax {
						continue // not characterized; unreachable spacing
					}
					for k := range est {
						est[k] = r.Estimate(p, eff, u, k, endLoad)
					}
				} else {
					if u == 1 && !have1 {
						for k := range last1 {
							last1[k], _ = r.Char.DetailStage(p, q, k, r.Char.SteadySlew(p, qi, k), endLoad)
						}
						have1 = true
					}
					if u >= 2 && !haveN {
						for k := range lastN {
							lastN[k], _ = r.Char.DetailStage(p, q, k, r.Char.Head(p, qi, k).SlewOut, endLoad)
						}
						haveN = true
					}
					for k := range est {
						h := r.Char.Head(p, qi, k)
						if u == 1 {
							est[k] = h.Wire + last1[k]
							continue
						}
						total := h.Wire + h.First
						if u > 2 {
							total += float64(u-2) * r.Char.UniformAt(p, q, k)
						}
						est[k] = total + lastN[k]
					}
				}
				if err := algorithm1Err(est, dlp); err < best.Err {
					// At the clamped spacing eff*(u+1) can round a hair below
					// directUM; a wire never runs shorter than the direct path.
					best = Solution{CellIdx: p, SpacingUM: eff, Pairs: u,
						DetourUM: math.Max(0, eff*float64(u+1)-directUM), Err: err}
				}
			}
		}
	}
	if math.IsInf(best.Err, 1) {
		return nil, fmt.Errorf("eco: no feasible insertion for arc (direct %.1fµm)", directUM)
	}
	return &best, nil
}

// RebuildArc applies a selected solution to the tree: removes the arc's
// interior chain, inserts the chosen pairs uniformly along the direct run
// with the detour spread evenly over the segments, legal-snaps the new
// buffers, and resets the bottom anchor's detour share (lines 19–21). It
// returns the nodes whose electrical context changed (for incremental
// re-timing).
func (r *Rebuilder) RebuildArc(tr *ctree.Tree, arc *ctree.Arc, sol *Solution) ([]ctree.NodeID, error) {
	top := tr.Node(arc.Top)
	bottom := tr.Node(arc.Bottom)
	if top == nil || bottom == nil {
		return nil, fmt.Errorf("eco: stale arc")
	}
	for _, id := range arc.Interior {
		if err := tr.RemoveNode(id); err != nil {
			return nil, fmt.Errorf("eco: removing interior node %d: %w", id, err)
		}
	}
	u := sol.Pairs
	segDetour := sol.DetourUM / float64(u+1)
	if u == 0 {
		bottom.Detour = sol.DetourUM
		return []ctree.NodeID{arc.Top, arc.Bottom}, nil
	}
	cell := r.T.Cells[sol.CellIdx]
	// Detach bottom from top; rebuild the chain.
	for i, c := range top.Children {
		if c == arc.Bottom {
			top.Children = append(top.Children[:i], top.Children[i+1:]...)
			break
		}
	}
	dirty := []ctree.NodeID{arc.Top, arc.Bottom}
	cur := arc.Top
	for i := 1; i <= u; i++ {
		f := float64(i) / float64(u+1)
		loc := geom.Pt(
			top.Loc.X+(bottom.Loc.X-top.Loc.X)*f,
			top.Loc.Y+(bottom.Loc.Y-top.Loc.Y)*f,
		)
		b := tr.AddNode(ctree.KindBuffer, r.Lg.Snap(loc), cell.Name, cur)
		b.Detour = segDetour
		dirty = append(dirty, b.ID)
		cur = b.ID
	}
	bottom.Parent = cur
	bottom.Detour = segDetour
	tr.Node(cur).Children = append(tr.Node(cur).Children, arc.Bottom)
	return dirty, nil
}
