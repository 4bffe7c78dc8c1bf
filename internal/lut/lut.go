// Package lut characterizes the stage-delay lookup tables the global
// optimization relies on (paper §4.1, Figure 3):
//
//   - LUTuniform: steady-state stage delay of an inverter pair driving a wire
//     of a given length into an identical next pair, per gate size, spacing
//     and corner. Used for the middle pairs of an arc and for the Algorithm-1
//     estimate of the required pair count.
//   - LUTdetail: stage delay for explicit input slew and end load — used for
//     the first and last pairs of an arc.
//
// From the same characterization the package derives the Figure-2 artifacts:
// the scatter of corner-to-corner stage-delay ratios versus delay per unit
// distance at the nominal corner, and the fitted polynomial envelopes
// (W_min, W_max) that the LP uses in constraint (11) to stay inside the
// ECO-implementable region.
//
// Characterization is a one-time-per-technology step, exactly as in the
// paper.
package lut

import (
	"fmt"
	"math"
	"sync"

	"skewvar/internal/fit"
	"skewvar/internal/rctree"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// Spacing grid: 10µm to 200µm in 5µm steps (paper §4.1).
const (
	SpacingMin  = 10.0
	SpacingMax  = 200.0
	SpacingStep = 5.0
)

// Char holds the characterized tables for one technology.
type Char struct {
	T        *tech.Tech
	Spacings []float64
	// uniform[cell][spacing][corner]: steady-state stage delay (pair gate
	// delay + fanout wire delay into the next identical pair), ps.
	uniform [][][]float64
	// steadySlew[cell][spacing][corner]: the self-consistent input slew.
	steadySlew [][][]float64
	// head[(cell*len(Spacings)+spacing)*corners+corner]: the
	// arc-independent head of an Algorithm-1 estimate at a grid spacing.
	head []Head
}

// Head is the arc-independent head of an Algorithm-1 arc estimate at a
// grid spacing q: the wire from the top anchor into the first pair, and
// the first pair driving a q-µm wire into an identical pair at the steady
// slew. It is exactly what the estimate computes for those stages.
type Head struct {
	Wire    float64 // WireDelay(k, q, InCap)
	First   float64 // DetailStage(p, q, k, SteadySlew(p, qi, k), InCap)
	SlewOut float64 // that stage's output slew
}

// Characterize builds the LUTs for a technology. Runtime is milliseconds; in
// a real flow this is the expensive SPICE step done once per node.
func Characterize(t *tech.Tech) *Char {
	var spacings []float64
	for q := SpacingMin; q <= SpacingMax+1e-9; q += SpacingStep {
		spacings = append(spacings, q)
	}
	c := &Char{T: t, Spacings: spacings}
	nc := t.NumCorners()
	c.head = make([]Head, 0, len(t.Cells)*len(spacings)*nc)
	for p, cell := range t.Cells {
		u := make([][]float64, len(spacings))
		s := make([][]float64, len(spacings))
		for qi, q := range spacings {
			u[qi] = make([]float64, nc)
			s[qi] = make([]float64, nc)
			for k := 0; k < nc; k++ {
				delay, slew := steadyStage(t, cell, q, k)
				u[qi][k] = delay
				s[qi][k] = slew
				var h Head
				h.Wire, _ = c.WireDelay(k, q, cell.InCap)
				h.First, h.SlewOut = c.DetailStage(p, q, k, slew, cell.InCap)
				c.head = append(c.head, h)
			}
		}
		c.uniform = append(c.uniform, u)
		c.steadySlew = append(c.steadySlew, s)
	}
	return c
}

// steadyStage iterates the repeating-stage fixed point: a pair driving a
// q-µm wire into an identical pair, until the input slew converges. The
// wire's electrical view depends only on (q, k, endLoad), so it is
// reduced once outside the loop; each iteration re-evaluates only the
// gate model and the slew propagation.
func steadyStage(t *tech.Tech, cell *tech.Cell, q float64, k int) (delay, slewIn float64) {
	w := buildStageWire(t, q, k, cell.InCap)
	slewIn = 40
	var stage float64
	for it := 0; it < 25; it++ {
		d, wireD, slewNext := w.stage(t, cell, k, slewIn)
		stage = d + wireD
		if math.Abs(slewNext-slewIn) < 0.01 {
			slewIn = slewNext
			break
		}
		slewIn = slewNext
	}
	return stage, slewIn
}

// stageWire is a q-µm stage wire with its end load reduced to what the
// stage evaluation consumes: total load and the far-end moments.
type stageWire struct {
	totalCap float64
	m1, m2   float64
}

// flatPool recycles the RC layouts of stage wires: one is built per LUT
// lookup on the ECO estimate path, so a warm lookup allocates nothing.
var flatPool = sync.Pool{New: func() interface{} { return new(rctree.Flat) }}

// buildStageWire reduces the stage wire once — the expensive part of a
// stage evaluation, and the part that never changes across fixed-point
// iterations.
func buildStageWire(t *tech.Tech, q float64, k int, endLoad float64) stageWire {
	f := flatPool.Get().(*rctree.Flat)
	f.Reset(0)
	end := f.AddWire(0, q, t.WireR(k), t.WireC(k))
	f.AddLoad(end, endLoad)
	m1, m2 := f.Moments()
	w := stageWire{totalCap: f.TotalCap(), m1: m1[end], m2: m2[end]}
	flatPool.Put(f)
	return w
}

// stage evaluates one stage through the reduced wire: pair gate delay at
// the given input slew, wire delay to the far end, and the PERI slew
// there — the identical arithmetic the unreduced path performs.
func (w stageWire) stage(t *tech.Tech, cell *tech.Cell, k int, slewIn float64) (gate, wire, slewOut float64) {
	gate, drvSlew := sta.PairDelay(t, cell, k, slewIn, w.totalCap)
	wire = rctree.D2M(w.m1, w.m2)
	slewOut = rctree.PERISlew(drvSlew, rctree.StepSlew(w.m1, w.m2))
	return gate, wire, slewOut
}

// detailStage computes one stage: pair gate delay at the given input slew
// driving a q-µm wire terminated by endLoad. Returns the pair delay, the
// wire delay to the far end, and the PERI slew at the far end.
func detailStage(t *tech.Tech, cell *tech.Cell, q float64, k int, slewIn, endLoad float64) (gate, wire, slewOut float64) {
	return buildStageWire(t, q, k, endLoad).stage(t, cell, k, slewIn)
}

// NumCells returns the number of characterized gate sizes.
func (c *Char) NumCells() int { return len(c.uniform) }

// Uniform returns the LUTuniform stage delay for cell index p, spacing index
// q and corner k.
func (c *Char) Uniform(p, q, k int) float64 { return c.uniform[p][q][k] }

// SteadySlew returns the converged stage input slew for (p, q, k).
func (c *Char) SteadySlew(p, q, k int) float64 { return c.steadySlew[p][q][k] }

// Head returns the estimate head for cell index p, spacing index qi and
// corner k.
func (c *Char) Head(p, qi, k int) Head {
	nc := c.T.NumCorners()
	return c.head[(p*len(c.Spacings)+qi)*nc+k]
}

// UniformAt linearly interpolates LUTuniform at an arbitrary spacing
// (clamped to the characterized range).
func (c *Char) UniformAt(p int, spacing float64, k int) float64 {
	q := clamp(spacing, SpacingMin, SpacingMax)
	f := (q - SpacingMin) / SpacingStep
	i := int(f)
	if i >= len(c.Spacings)-1 {
		return c.uniform[p][len(c.Spacings)-1][k]
	}
	frac := f - float64(i)
	return c.uniform[p][i][k]*(1-frac) + c.uniform[p][i+1][k]*frac
}

// DetailStage is LUTdetail: the stage delay and output slew for cell index
// p, explicit spacing, input slew and end load at corner k.
func (c *Char) DetailStage(p int, spacing float64, k int, slewIn, endLoad float64) (delay, slewOut float64) {
	gate, wire, so := detailStage(c.T, c.T.Cells[p], clamp(spacing, 1, 4*SpacingMax), k, slewIn, endLoad)
	return gate + wire, so
}

// WireDelay returns the bare-wire delay (no driving pair) of a length-µm
// wire terminated by endLoad at corner k, plus its step slew. Used for arcs
// rebuilt with zero inverter pairs.
func (c *Char) WireDelay(k int, length, endLoad float64) (delay, stepSlew float64) {
	if length <= 0 {
		return 0, 0
	}
	w := buildStageWire(c.T, length, k, endLoad)
	return rctree.D2M(w.m1, w.m2), rctree.StepSlew(w.m1, w.m2)
}

// MinDelayPerUM returns the smallest achievable stage delay per µm at corner
// k over all (size, spacing) choices — the basis of the LP's per-arc lower
// bound (constraint (10)).
func (c *Char) MinDelayPerUM(k int) float64 {
	best := math.Inf(1)
	for p := range c.uniform {
		for qi, q := range c.Spacings {
			if v := c.uniform[p][qi][k] / q; v < best {
				best = v
			}
		}
	}
	return best
}

// RatioSample is one point of the Figure-2 scatter.
type RatioSample struct {
	Cell       int
	SpacingUM  float64
	DelayPerUM float64 // stage delay per µm at the nominal corner (x-axis)
	Ratio      float64 // stage delay ratio d(kNum)/d(kDen) (y-axis)
}

// RatioScatter generates the Figure-2 scatter for the corner pair
// (kNum, kDen): every characterized (size, spacing) plus slew/load variants
// around the steady state, mirroring the paper's "each circle represents an
// inverter pair with a particular gate size, routed wirelength, input slew
// and load capacitance".
func (c *Char) RatioScatter(kNum, kDen int) []RatioSample {
	nom := c.T.Nominal
	var out []RatioSample
	slewScale := []float64{0.8, 1.0, 1.3}
	loadScale := []float64{0.8, 1.0, 1.4}
	for p := range c.uniform {
		for qi, q := range c.Spacings {
			for _, ss := range slewScale {
				for _, ls := range loadScale {
					slew0 := c.steadySlew[p][qi][nom] * ss
					load := c.T.Cells[p].InCap * ls
					dNom, _ := c.DetailStage(p, q, nom, slew0, load)
					dNum, _ := c.DetailStage(p, q, kNum, c.steadySlew[p][qi][kNum]*ss, load)
					dDen, _ := c.DetailStage(p, q, kDen, c.steadySlew[p][qi][kDen]*ss, load)
					if dDen <= 0 || dNom <= 0 {
						continue
					}
					out = append(out, RatioSample{
						Cell:       p,
						SpacingUM:  q,
						DelayPerUM: dNom / q,
						Ratio:      dNum / dDen,
					})
				}
			}
		}
	}
	return out
}

// Envelope holds the fitted W_min/W_max polynomial bounds of constraint (11)
// for one corner pair, as functions of the nominal delay per unit distance.
type Envelope struct {
	KNum, KDen int
	Upper      fit.Poly
	Lower      fit.Poly
	XMin, XMax float64 // fitted x range; Bounds clamps into it
}

// FitEnvelope fits degree-2 polynomial envelopes over the ratio scatter of
// a corner pair (the red curves of Figure 2).
func (c *Char) FitEnvelope(kNum, kDen int) (*Envelope, error) {
	sc := c.RatioScatter(kNum, kDen)
	if len(sc) < 6 {
		return nil, fmt.Errorf("lut: insufficient scatter (%d points)", len(sc))
	}
	xs := make([]float64, len(sc))
	ys := make([]float64, len(sc))
	xmin, xmax := math.Inf(1), math.Inf(-1)
	for i, s := range sc {
		xs[i], ys[i] = s.DelayPerUM, s.Ratio
		if s.DelayPerUM < xmin {
			xmin = s.DelayPerUM
		}
		if s.DelayPerUM > xmax {
			xmax = s.DelayPerUM
		}
	}
	up, lo, err := fit.EnvelopeFit(xs, ys, 2, 0.01)
	if err != nil {
		return nil, err
	}
	return &Envelope{KNum: kNum, KDen: kDen, Upper: up, Lower: lo, XMin: xmin, XMax: xmax}, nil
}

// Bounds evaluates (Wmin, Wmax) at a nominal delay-per-µm value, clamped to
// the characterized range.
func (e *Envelope) Bounds(delayPerUM float64) (wmin, wmax float64) {
	x := clamp(delayPerUM, e.XMin, e.XMax)
	wmin = e.Lower.Eval(x)
	wmax = e.Upper.Eval(x)
	if wmin > wmax {
		wmin, wmax = wmax, wmin
	}
	if wmin < 1e-3 {
		wmin = 1e-3
	}
	return wmin, wmax
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
