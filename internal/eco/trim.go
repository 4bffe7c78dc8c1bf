package eco

import (
	"errors"
	"fmt"
	"math"

	"skewvar/internal/ctree"
)

// TrimSolution is a detour-only arc adjustment: wire snaking is added to (or
// existing snaking removed from) the arc without touching its inverter
// pairs. Routing detour is the third ECO knob of the paper's global
// optimization, and the only one with sub-picosecond delay granularity —
// the LP's small surgical corrections are realized this way, while large
// corrections go through the full Algorithm-1 rebuild.
type TrimSolution struct {
	ExtraUM float64 // signed wire change (negative removes existing snake)
	Err     float64 // Algorithm-1 combined error at the chosen trim
}

// errNoTrim is SelectTrim's answer when no trim beats doing nothing.
var errNoTrim = errors.New("eco: no trim improves on the current arc")

// arcDetourBudget returns the total removable snaking on the arc (interior
// nodes + bottom anchor).
func ArcDetourBudget(tr *ctree.Tree, arc *ctree.Arc) float64 {
	var total float64
	for _, id := range arc.Interior {
		if n := tr.Node(id); n != nil {
			total += n.Detour
		}
	}
	if b := tr.Node(arc.Bottom); b != nil {
		total += b.Detour
	}
	return total
}

// lastStageCell returns the cell driving the arc's final segment: the last
// interior buffer, or the top anchor's driver for an unbuffered arc.
func (r *Rebuilder) lastStageCell(tr *ctree.Tree, arc *ctree.Arc) string {
	for i := len(arc.Interior) - 1; i >= 0; i-- {
		if n := tr.Node(arc.Interior[i]); n != nil && n.Kind == ctree.KindBuffer {
			return n.CellName
		}
	}
	if n := tr.Node(arc.Top); n != nil && n.CellName != "" {
		return n.CellName
	}
	return ""
}

// trimSlopes estimates the per-corner delay sensitivity (ps/µm) of snaking
// on the arc's final segment: the wire's own delay growth plus the extra
// load seen by the driving pair.
func (r *Rebuilder) TrimSlopes(tr *ctree.Tree, arc *ctree.Arc, endLoad float64) []float64 {
	cellName := r.lastStageCell(tr, arc)
	cell := r.T.CellByName(cellName)
	// Current final-segment length.
	var drvLoc, botLoc = tr.Node(arc.Top).Loc, tr.Node(arc.Bottom).Loc
	for i := len(arc.Interior) - 1; i >= 0; i-- {
		if n := tr.Node(arc.Interior[i]); n != nil && n.Kind == ctree.KindBuffer {
			drvLoc = n.Loc
			break
		}
	}
	lLast := drvLoc.Manhattan(botLoc) + tr.Node(arc.Bottom).Detour
	if lLast < 5 {
		lLast = 5
	}
	K := r.T.NumCorners()
	slopes := make([]float64, K)
	const h = 10.0
	for k := 0; k < K; k++ {
		d1, _ := r.Char.WireDelay(k, lLast, endLoad)
		d2, _ := r.Char.WireDelay(k, lLast+h, endLoad)
		s := (d2 - d1) / h
		if cell != nil {
			// Added wire cap slows the driving pair.
			load := lLast*r.T.WireC(k) + endLoad
			g1 := cell.DelayPS(k, 40, load)
			g2 := cell.DelayPS(k, 40, load+h*r.T.WireC(k))
			s += (g2 - g1) / h
		}
		slopes[k] = s
	}
	return slopes
}

// SelectTrim searches for the snaking change that best realizes the LP
// delay targets, over [−removable, +maxExtra] in 2µm steps, where maxExtra
// caps the added wire (callers pass the driving net's remaining capacitance
// budget; ≤0 selects the 400µm default). It returns an error if no trim
// improves on doing nothing.
func (r *Rebuilder) SelectTrim(tr *ctree.Tree, arc *ctree.Arc, arcD, dlp []float64, endLoad, maxExtra float64) (*TrimSolution, error) {
	if len(arcD) != r.T.NumCorners() || len(dlp) != len(arcD) {
		return nil, fmt.Errorf("eco: trim target/corner mismatch")
	}
	if maxExtra <= 0 {
		maxExtra = 400
	}
	slopes := r.TrimSlopes(tr, arc, endLoad)
	budget := ArcDetourBudget(tr, arc)
	// errAt is algorithm1Err of the estimate arcD + slopes·extra, computed
	// without materializing it.
	errAt := func(extra float64) float64 {
		var err float64
		for k := range arcD {
			err += math.Abs((arcD[k] + slopes[k]*extra) - dlp[k])
		}
		for k := range arcD {
			ek := arcD[k] + slopes[k]*extra
			for k2 := k + 1; k2 < len(arcD); k2++ {
				err += math.Abs((ek - (arcD[k2] + slopes[k2]*extra)) - (dlp[k] - dlp[k2]))
			}
		}
		return err
	}
	best := TrimSolution{ExtraUM: 0, Err: errAt(0)}
	for extra := -budget; extra <= maxExtra; extra += 2 {
		if e := errAt(extra); e < best.Err {
			best = TrimSolution{ExtraUM: extra, Err: e}
		}
	}
	if best.ExtraUM == 0 {
		return nil, errNoTrim
	}
	return &best, nil
}

// ApplyTrim adjusts the arc's snaking: positive extra is added at the bottom
// anchor; negative extra consumes existing detours bottom-up. It returns the
// nodes whose edges changed (for incremental re-timing).
func (r *Rebuilder) ApplyTrim(tr *ctree.Tree, arc *ctree.Arc, extra float64) ([]ctree.NodeID, error) {
	bottom := tr.Node(arc.Bottom)
	if bottom == nil {
		return nil, fmt.Errorf("eco: stale arc")
	}
	if extra >= 0 {
		bottom.Detour += extra
		return []ctree.NodeID{arc.Bottom}, nil
	}
	remove := -extra
	// Check the budget first: a failed trim leaves the tree untouched.
	if short := remove - ArcDetourBudget(tr, arc); short > 1e-6 {
		return nil, fmt.Errorf("eco: trim removes more snaking than the arc carries (%.1fµm short)", short)
	}
	dirty := []ctree.NodeID{arc.Bottom}
	if take := math.Min(remove, bottom.Detour); take > 0 {
		bottom.Detour -= take
		remove -= take
	}
	for i := len(arc.Interior) - 1; i >= 0 && remove > 1e-9; i-- {
		n := tr.Node(arc.Interior[i])
		if n == nil {
			continue
		}
		take := math.Min(remove, n.Detour)
		if take > 0 {
			n.Detour -= take
			remove -= take
			dirty = append(dirty, n.ID)
		}
	}
	return dirty, nil
}
