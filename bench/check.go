package main

import (
	"fmt"
	"math"

	"skewvar/internal/lp"
	"skewvar/internal/sta"
)

// qor is one job's quality of result: the original and final ΣV and
// per-corner local skew over the job's pair set, measured by the golden
// timer with the normalization factors of the original tree.
type qor struct {
	sumVar0, sumVar float64
	skew0, skew     []float64
	// stages is the number of optimization stages between the original
	// and the final tree. Each stage may raise local skew up to
	// sta.SkewGuard of its own input, so the final ceiling applies the
	// guard once per stage.
	stages int
}

func (q qor) norm() float64 { return q.sumVar / q.sumVar0 }

// skewRatioMax is the largest per-corner final ÷ original local skew.
func (q qor) skewRatioMax() float64 {
	r := 0.0
	for k := range q.skew {
		r = math.Max(r, q.skew[k]/q.skew0[k])
	}
	return r
}

// checkQoR holds a job to the flows' contract: the result is never worse
// than the original under the reported objective, and no corner's local
// skew exceeds the guard band.
func checkQoR(q qor) error {
	if !(q.sumVar0 > 0) || math.IsNaN(q.sumVar) || len(q.skew) != len(q.skew0) || len(q.skew0) == 0 {
		return fmt.Errorf("malformed QoR (ΣV %g → %g, %d/%d corners)", q.sumVar0, q.sumVar, len(q.skew0), len(q.skew))
	}
	// The flows accept a change only when the golden ΣV falls; the final
	// full re-timing may differ from the incremental one by rounding.
	if q.norm() > 1+1e-9 {
		return fmt.Errorf("ΣV rose from %.6g to %.6g ps", q.sumVar0, q.sumVar)
	}
	for k := range q.skew0 {
		ceiling := q.skew0[k]
		for s := 0; s < q.stages; s++ {
			ceiling = sta.SkewGuard(ceiling)
		}
		if q.skew[k] > ceiling {
			return fmt.Errorf("corner %d local skew %.6g ps exceeds the guard %.6g ps (original %.6g ps)",
				k, q.skew[k], ceiling, q.skew0[k])
		}
	}
	return nil
}

// checkLPStatus accepts the two outcomes of a sound solve: optimal, or
// infeasible — the tightest rungs of the U-sweep (ΣV ≤ U·ΣV0) can ask for
// more than the arcs can give, and the global stage skips such a rung. An
// iteration limit or an unbounded objective (Σ|Δ| is bounded below) means
// the solver failed.
func checkLPStatus(status string) error {
	if status != lp.Optimal.String() && status != lp.Infeasible.String() {
		return fmt.Errorf("LP solve ended %s", status)
	}
	return nil
}

// servedJob is what the load generator saw of one submission.
type servedJob struct {
	acked    bool   // the server answered 202 with an id
	state    string // last state polled ("" when never seen terminal)
	degraded bool
	resultOK bool // GET /result returned a design that parsed and validated
}

// checkServedJob requires every acknowledged job to end done, undegraded,
// with a result that parses.
func checkServedJob(j servedJob) error {
	switch {
	case !j.acked:
		return fmt.Errorf("submission was not acknowledged")
	case j.state == "":
		return fmt.Errorf("acknowledged job was lost: it never reached a terminal state")
	case j.state != "done":
		return fmt.Errorf("job ended %s", j.state)
	case j.degraded:
		return fmt.Errorf("job result is degraded")
	case !j.resultOK:
		return fmt.Errorf("job result did not parse")
	}
	return nil
}
