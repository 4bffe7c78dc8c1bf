// Package rctree computes wire delays and slews on distributed RC trees:
// Elmore (first moment), the D2M two-moment delay metric [Alpert et al.,
// ISPD 2000], and the step-response slew used by PERI-style slew propagation
// [Kashyap et al., TAU 2002]. Flat (flat.go) is the tree; the functions
// here turn its moments into delays and slews.
//
// Units follow the project convention (kΩ, fF, ps): resistance×capacitance
// products are picoseconds directly.
package rctree

import "math"

// D2M is the two-moment delay metric: ln2 · m1²/√m2. It degrades gracefully
// to the Elmore delay scaled by ln2 when m2 collapses (lumped node).
func D2M(m1, m2 float64) float64 {
	if m2 <= 0 {
		return m1 * math.Ln2
	}
	return math.Ln2 * m1 * m1 / math.Sqrt(m2)
}

// StepSlew converts the first two moments into a 10–90% step-response slew
// estimate: 2.2·σ with σ² = 2m2 − m1² (exact for a single pole, where the
// 10–90 transition time is 2.2τ).
func StepSlew(m1, m2 float64) float64 {
	v := 2*m2 - m1*m1
	if v <= 0 {
		return 2.2 * m1 // degenerate: treat as single pole with τ = m1
	}
	return 2.2 * math.Sqrt(v)
}

// PERISlew combines the driver output (ramp) slew with the wire's step slew
// per PERI: slew_out = sqrt(slew_in² + slew_step²).
func PERISlew(driverSlew, stepSlew float64) float64 {
	return math.Sqrt(driverSlew*driverSlew + stepSlew*stepSlew)
}

// WireSegments is the number of π sections Flat.AddWire breaks a wire edge
// into. More sections improve distributed-RC fidelity; 1 section is a
// single π.
const WireSegments = 2
