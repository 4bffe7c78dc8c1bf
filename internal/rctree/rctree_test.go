package rctree

import (
	"math"
	"math/rand"
	"testing"
)

func TestElmoreSingleLumpedRC(t *testing.T) {
	// Driver -- R=2kΩ --> C=5fF. Elmore = 10ps.
	f := &Flat{Parent: []int32{-1, 0}, Res: []float64{0, 2}, Cap: []float64{0, 5}}
	m1, _ := f.Moments()
	if math.Abs(m1[1]-10) > 1e-12 {
		t.Errorf("Elmore = %v, want 10", m1[1])
	}
	if m1[0] != 0 {
		t.Errorf("root Elmore = %v", m1[0])
	}
	if f.TotalCap() != 5 {
		t.Errorf("TotalCap = %v", f.TotalCap())
	}
}

func TestElmoreHandComputedChain(t *testing.T) {
	// 0 -R1=1-> 1(C=2) -R2=3-> 2(C=4)
	// Elmore(1) = 1*(2+4) = 6; Elmore(2) = 6 + 3*4 = 18.
	// m2(1) = 1*(2*6 + 4*18) = 84; m2(2) = 84 + 3*(4*18) = 300.
	f := &Flat{Parent: []int32{-1, 0, 1}, Res: []float64{0, 1, 3}, Cap: []float64{0, 2, 4}}
	m1, m2 := f.Moments()
	if m1[1] != 6 || m1[2] != 18 {
		t.Errorf("Elmore = %v", m1)
	}
	if m2[1] != 84 || m2[2] != 300 {
		t.Errorf("m2 = %v", m2)
	}
}

// TestMomentsHandComputedDeepChain checks both moments on a chain three
// edges deep, exact in binary floating point. A downstream-cap sweep run
// in the wrong direction still gets every depth-2 tree right; here it
// leaves C3 out of node 1's downstream cap.
func TestMomentsHandComputedDeepChain(t *testing.T) {
	// 0 -R1=1-> 1(C=2) -R2=3-> 2(C=4) -R3=2-> 3(C=1)
	// Downstream caps: 7, 5, 1.
	// m1: 1*7 = 7; 7 + 3*5 = 22; 22 + 2*1 = 24.
	// Downstream Σ C·m1: 2*7 + 4*22 + 1*24 = 126; 88 + 24 = 112; 24.
	// m2: 1*126 = 126; 126 + 3*112 = 462; 462 + 2*24 = 510.
	f := &Flat{
		Parent: []int32{-1, 0, 1, 2},
		Res:    []float64{0, 1, 3, 2},
		Cap:    []float64{0, 2, 4, 1},
	}
	m1, m2 := f.Moments()
	want1, want2 := []float64{0, 7, 22, 24}, []float64{0, 126, 462, 510}
	for i := range want1 {
		if m1[i] != want1[i] || m2[i] != want2[i] {
			t.Errorf("node %d: (m1, m2) = (%v, %v), want (%v, %v)", i, m1[i], m2[i], want1[i], want2[i])
		}
	}
}

func TestElmoreBranching(t *testing.T) {
	//      0
	//   R=1|
	//      1 (C=1)
	//    /   \
	// R=2     R=2
	// 2(C=3)  3(C=5)
	f := &Flat{Parent: []int32{-1, 0, 1, 1}, Res: []float64{0, 1, 2, 2}, Cap: []float64{0, 1, 3, 5}}
	m1, _ := f.Moments()
	// Elmore(2) = 1*9 + 2*3 = 15; Elmore(3) = 9 + 10 = 19.
	if math.Abs(m1[2]-15) > 1e-12 || math.Abs(m1[3]-19) > 1e-12 {
		t.Errorf("Elmore = %v", m1)
	}
}

func TestMomentsSinglePole(t *testing.T) {
	// Single lumped RC: m1 = τ, m2 = τ² (for a single pole, the moment
	// recursion gives m2 = R·C·m1 = τ²).
	f := &Flat{Parent: []int32{-1, 0}, Res: []float64{0, 4}, Cap: []float64{0, 3}}
	m1, m2 := f.Moments()
	tau := 12.0
	if math.Abs(m1[1]-tau) > 1e-12 {
		t.Errorf("m1 = %v", m1[1])
	}
	if math.Abs(m2[1]-tau*tau) > 1e-12 {
		t.Errorf("m2 = %v, want τ²=%v", m2[1], tau*tau)
	}
	// D2M of a single pole: ln2·τ — the exact 50% delay.
	d := D2M(m1[1], m2[1])
	if math.Abs(d-math.Ln2*tau) > 1e-9 {
		t.Errorf("D2M = %v, want %v", d, math.Ln2*tau)
	}
	// Step slew of a single pole = 2.2τ.
	s := StepSlew(m1[1], m2[1])
	if math.Abs(s-2.2*tau) > 1e-9 {
		t.Errorf("StepSlew = %v, want %v", s, 2.2*tau)
	}
}

// randomFlat fills a Flat of n nodes with random parents-first topology:
// each node's parent is drawn from the nodes before it, its R from
// [0.1, 1.1) and its C from [capBase, capBase+capSpan).
func randomFlat(rng *rand.Rand, n int, capBase, capSpan float64) *Flat {
	f := &Flat{Parent: make([]int32, n), Res: make([]float64, n), Cap: make([]float64, n)}
	f.Parent[0] = -1
	for i := 1; i < n; i++ {
		f.Parent[i] = int32(rng.Intn(i))
		f.Res[i] = 0.1 + rng.Float64()
		f.Cap[i] = capBase + rng.Float64()*capSpan
	}
	return f
}

func TestD2MBoundsElmore(t *testing.T) {
	// D2M is known to lower-bound Elmore (≤ m1) on RC trees and to be far
	// more accurate for near-source nodes; check D2M ≤ Elmore on random
	// trees.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		m1, m2 := randomFlat(rng, n, 0.1, 5).Moments()
		for i := 1; i < n; i++ {
			d := D2M(m1[i], m2[i])
			if d > m1[i]+1e-9 {
				t.Fatalf("trial %d node %d: D2M %v > Elmore %v", trial, i, d, m1[i])
			}
			if d <= 0 {
				t.Fatalf("trial %d node %d: non-positive D2M", trial, i)
			}
		}
	}
}

func TestDegenerateMetrics(t *testing.T) {
	if d := D2M(10, 0); math.Abs(d-10*math.Ln2) > 1e-12 {
		t.Errorf("degenerate D2M = %v", d)
	}
	if s := StepSlew(10, 0); math.Abs(s-22) > 1e-12 {
		t.Errorf("degenerate StepSlew = %v", s)
	}
}

func TestPERISlew(t *testing.T) {
	if s := PERISlew(3, 4); math.Abs(s-5) > 1e-12 {
		t.Errorf("PERI = %v, want 5", s)
	}
	if s := PERISlew(7, 0); s != 7 {
		t.Errorf("PERI with zero wire = %v", s)
	}
}

func TestWireSplitsCap(t *testing.T) {
	f := &Flat{}
	f.Reset(1.0)
	end := f.AddWire(0, 100, 0.002, 0.2) // R=0.2kΩ, C=20fF total
	f.AddLoad(end, 5)
	// Two π sections of R=0.1, C=10: half of each section's C sits at its
	// near end, so the root holds 1+5 and each section's node 5+5 (the far
	// end's second 5 is the load).
	for i, want := range []float64{6, 10, 10} {
		if math.Abs(f.Cap[i]-want) > 1e-12 {
			t.Errorf("Cap = %v, want [6 10 10]", f.Cap)
			break
		}
	}
	if math.Abs(f.TotalCap()-26) > 1e-9 {
		t.Errorf("TotalCap = %v, want 26", f.TotalCap())
	}
	m1, _ := f.Moments()
	// Distributed wire + load: Elmore = R·(C/2 + Cload) for the ideal
	// distributed line = 0.2·(10+5) = 3ps, which π sections reproduce at
	// the far end.
	if math.Abs(m1[end]-3) > 1e-12 {
		t.Errorf("Elmore = %v, want 3", m1[end])
	}
}

func TestNegativeWirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	f := &Flat{}
	f.Reset(0)
	f.AddWire(0, -1, 1, 1)
}

func TestElmoreMonotoneInLoadProperty(t *testing.T) {
	// Adding load anywhere must not decrease any Elmore delay.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(15)
		f := randomFlat(rng, n, 0, 3)
		before, _ := f.Moments()
		target := rng.Intn(n)
		f2 := &Flat{Parent: f.Parent, Res: f.Res, Cap: append([]float64(nil), f.Cap...)}
		f2.Cap[target] += 2
		after, _ := f2.Moments()
		for i := 0; i < n; i++ {
			if after[i] < before[i]-1e-12 {
				t.Fatalf("trial %d: Elmore decreased at node %d after adding load", trial, i)
			}
		}
	}
}

func TestChainTopology(t *testing.T) {
	f := &Flat{}
	f.Reset(0)
	a := f.AddWire(0, 50, 0.002, 0.2)
	c := f.AddWire(a, 50, 0.002, 0.2)
	d := f.AddWire(a, 30, 0.002, 0.2) // branch
	f.AddLoad(c, 2)
	f.AddLoad(d, 3)
	for i := 1; i < f.Len(); i++ {
		if f.Parent[i] >= int32(i) {
			t.Fatalf("parent[%d] = %d: a parent's index must be below its child's", i, f.Parent[i])
		}
	}
	m1, _ := f.Moments()
	if m1[c] <= m1[a] || m1[d] <= m1[a] {
		t.Error("downstream Elmore not larger than branch point")
	}
}
