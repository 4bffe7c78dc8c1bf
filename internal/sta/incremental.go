package sta

import "skewvar/internal/ctree"

// slewConvergedEps is the input-slew change (ps) below which a downstream
// stage's gate delay is considered unchanged — the same observation the
// paper uses to stop slew updates two stages downstream ("the delay and
// slew change of buffers beyond two stages is <1ps").
const slewConvergedEps = 0.01

// AnalyzeIncremental re-times the tree after a local edit, starting from a
// baseline analysis of the pre-edit tree. dirty lists the nodes whose
// electrical context changed (moved/resized/re-parented nodes); their
// drivers are pulled in automatically. Nets whose driver input slew is
// unchanged shift by the driver's arrival delta without rebuilding RC or
// re-interpolating tables; the baseline copy and the driver walk still
// cost O(design) per call.
//
// It is Analyze's serial pass (analyze in flat.go) started from a copy of
// the baseline. Re-timed nets go through the same hash-keyed net cache,
// one lookup per net for all corners: clean nets hash to the baseline
// tree's views and hit them untouched, dirty nets hash to new keys and
// are rebuilt, so exactly the dirty nets miss. The full/offset decision is
// made per corner (a net can have converged slews at one corner and not
// another), which stays within the same slew-convergence tolerance as the
// joint decision.
//
// The result is equivalent to Analyze within slew-convergence tolerance
// (picoseconds-e-3); see the equivalence tests.
func (tm *Timer) AnalyzeIncremental(tr *ctree.Tree, base *Analysis, dirty []ctree.NodeID) *Analysis {
	return tm.analyze(tr, base, dirty)
}
