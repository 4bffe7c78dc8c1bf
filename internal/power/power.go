// Package power reports clock-network cost metrics — clock cell count,
// cell area, switching power and wirelength — the Table-5 side columns that
// demonstrate the optimization's "negligible area and power overhead". The
// paper uses Synopsys PT-PX; this is a switching-power model over the same
// netlist quantities.
package power

import (
	"skewvar/internal/ctree"
	"skewvar/internal/tech"
)

// Report holds the cost metrics of one clock tree.
type Report struct {
	NumCells     int     // clock inverters (2 per buffer/source pair)
	AreaUM2      float64 // total inverter area
	WirelengthUM float64 // total routed clock wire (incl. snaking)
	WireCapFF    float64 // at the nominal corner
	PinCapFF     float64 // buffer input pins + sink pins
	PowerMW      float64 // f·V²·ΣC at the nominal corner
}

// Analyze computes the report at the technology's nominal corner.
func Analyze(t *tech.Tech, tr *ctree.Tree) Report {
	var r Report
	k := t.Nominal
	v := t.Corners[k].Voltage
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n.Kind == ctree.KindBuffer || n.Kind == ctree.KindSource {
			cell := t.CellByName(n.CellName)
			if cell != nil {
				r.NumCells += 2
				r.AreaUM2 += 2 * cell.Area
				r.PinCapFF += cell.InCap
			}
		}
		if n.Kind == ctree.KindSink {
			r.PinCapFF += t.SinkCap
		}
		if p := tr.Node(n.Parent); p != nil {
			r.WirelengthUM += p.Loc.Manhattan(n.Loc) + n.Detour
		}
	}
	r.WireCapFF = r.WirelengthUM * t.WireC(k)
	// P = C·V²·f; fF × V² × GHz = µW.
	r.PowerMW = (r.WireCapFF + r.PinCapFF) * v * v * t.ClockFreqGHz / 1000
	return r
}

// FixCost estimates the downstream datapath-repair effort a clock solution
// implies — the paper's motivation (§1: skew variation is paid for in hold
// and setup buffer insertion, Vth swaps and sizing at later design stages)
// and its future-work item (i). For every sequentially adjacent pair a
// deterministic synthetic datapath (min/max delay derived from the sink
// separation) is checked at every corner; violations convert into an
// equivalent count of fixing buffers.
type FixCost struct {
	HoldViolations  int
	SetupViolations int
	HoldPS          float64 // total hold violation, ps
	SetupPS         float64 // total setup violation, ps
	FixBuffers      int     // equivalent hold/setup buffers to insert
}

// Fixed parameters of the synthetic datapath model.
const (
	periodPS    float64 = 1000 // clock period
	holdTimePS  float64 = 15   // FF hold requirement
	setupTimePS float64 = 35   // FF setup requirement
	bufDelayPS  float64 = 25   // delay of one fixing buffer
)

// EstimateFixCost evaluates the synthetic datapaths against per-corner sink
// latencies. latency(k, sink) must return the clock arrival of a sink at
// corner k (an sta.Analysis closure; the indirection avoids an import
// cycle). Corner scaling of datapath delays follows the per-corner scale
// factors (e.g. the measured αk⁻¹).
func EstimateFixCost(tr *ctree.Tree, pairs []ctree.SinkPair, corners int,
	latency func(k int, sink ctree.NodeID) float64, cornerScale []float64) FixCost {
	var out FixCost
	for _, pr := range pairs {
		a, b := tr.Node(pr.A), tr.Node(pr.B)
		if a == nil || b == nil {
			continue
		}
		dist := a.Loc.Manhattan(b.Loc)
		dpMin := 30 + 0.15*dist // synthetic shortest path, ps at nominal
		dpMax := dpMin + 120 + 0.35*dist
		holdWorst, setupWorst := 0.0, 0.0
		for k := 0; k < corners; k++ {
			scale := 1.0
			if k < len(cornerScale) && cornerScale[k] > 0 {
				scale = cornerScale[k]
			}
			skew := latency(k, pr.B) - latency(k, pr.A) // capture − launch
			holdSlack := dpMin*scale - skew - holdTimePS
			setupSlack := periodPS - dpMax*scale + skew - setupTimePS
			if -holdSlack > holdWorst {
				holdWorst = -holdSlack
			}
			if -setupSlack > setupWorst {
				setupWorst = -setupSlack
			}
		}
		if holdWorst > 0 {
			out.HoldViolations++
			out.HoldPS += holdWorst
			out.FixBuffers += int(holdWorst/bufDelayPS) + 1
		}
		if setupWorst > 0 {
			out.SetupViolations++
			out.SetupPS += setupWorst
			out.FixBuffers += int(setupWorst/bufDelayPS) + 1
		}
	}
	return out
}
