package rctree

import (
	"encoding/binary"
	"math"
	"testing"
)

// buildOp is one decoded fuzz operation: attach a wire under an existing
// node, optionally with a pin load at its far end.
type buildOp struct {
	parentSel uint16
	length    float64
	load      float64
}

// decodeOps turns raw fuzz bytes into a bounded operation list. Lengths
// and loads are quantized from the bytes so every input maps to finite,
// non-negative values.
func decodeOps(data []byte) []buildOp {
	var ops []buildOp
	for len(data) >= 6 && len(ops) < 256 {
		sel := binary.LittleEndian.Uint16(data[0:2])
		lraw := binary.LittleEndian.Uint16(data[2:4])
		praw := binary.LittleEndian.Uint16(data[4:6])
		data = data[6:]
		ops = append(ops, buildOp{
			parentSel: sel,
			length:    float64(lraw) / 97.0,   // 0..~675 µm
			load:      float64(praw%512) / 64, // 0..8 fF
		})
	}
	return ops
}

// buildBoth constructs the same topology through the legacy Builder and
// a Flat, returning both.
func buildBoth(ops []buildOp, rPer, cPer float64) (*RC, *Flat) {
	b := NewBuilder(0)
	f := &Flat{}
	f.Reset(0)
	ends := []int{0}
	for _, op := range ops {
		parent := ends[int(op.parentSel)%len(ends)]
		le := b.AddWire(parent, op.length, rPer, cPer)
		fe := f.AddWire(parent, op.length, rPer, cPer)
		if le != fe {
			panic("legacy and flat builders returned different indices")
		}
		if op.load > 0 {
			b.AddLoad(le, op.load)
			f.AddLoad(fe, op.load)
		}
		ends = append(ends, le)
	}
	return b.Done(), f
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// compareRC asserts the flat tree matches the legacy tree bit for bit:
// structure, R/C columns, topological order, total cap, and both moments.
func compareRC(t *testing.T, rc *RC, f *Flat) {
	t.Helper()
	if len(rc.Parent) != f.Len() {
		t.Fatalf("node count: legacy %d flat %d", len(rc.Parent), f.Len())
	}
	for i := range rc.Parent {
		if int32(rc.Parent[i]) != f.Parent[i] {
			t.Fatalf("parent[%d]: legacy %d flat %d", i, rc.Parent[i], f.Parent[i])
		}
		if !bitsEq(rc.Res[i], f.Res[i]) || !bitsEq(rc.Cap[i], f.Cap[i]) {
			t.Fatalf("RC[%d]: legacy (%v,%v) flat (%v,%v)", i, rc.Res[i], rc.Cap[i], f.Res[i], f.Cap[i])
		}
	}
	lo := rc.topo()
	fo := f.Topo()
	for i := range lo {
		if int32(lo[i]) != fo[i] {
			t.Fatalf("topo[%d]: legacy %d flat %d (stable depth order must match)", i, lo[i], fo[i])
		}
	}
	if !bitsEq(rc.TotalCap(), f.TotalCap()) {
		t.Fatalf("TotalCap: legacy %v flat %v", rc.TotalCap(), f.TotalCap())
	}
	lm1, lm2 := rc.Moments()
	fm1, fm2 := f.Moments()
	for i := range lm1 {
		if !bitsEq(lm1[i], fm1[i]) || !bitsEq(lm2[i], fm2[i]) {
			t.Fatalf("moments[%d]: legacy (%v,%v) flat (%v,%v)", i, lm1[i], lm2[i], fm1[i], fm2[i])
		}
	}
}

func TestFlatMatchesLegacyOnChains(t *testing.T) {
	ops := []buildOp{
		{parentSel: 0, length: 120, load: 1.2},
		{parentSel: 1, length: 35.5, load: 0},
		{parentSel: 2, length: 0, load: 3},
		{parentSel: 0, length: 480.25, load: 0.85},
		{parentSel: 3, length: 17, load: 0},
	}
	rc, f := buildBoth(ops, 0.0021, 0.19)
	compareRC(t, rc, f)
}

// TestFlatResetReuse proves a pooled Flat reaches zero allocations and
// stays bit-identical after arbitrary interleaved reuse: build A, build
// B (different shape), rebuild A ⇒ identical bytes to the first A pass.
func TestFlatResetReuse(t *testing.T) {
	opsA := []buildOp{{0, 90, 2}, {1, 45, 0}, {0, 200, 1.1}, {2, 10, 0.5}}
	opsB := []buildOp{{0, 300, 0}, {1, 300, 4}, {2, 5, 0}, {3, 77, 0}, {1, 13, 2}}

	f := &Flat{}
	run := func(ops []buildOp) (tc float64, m1, m2 []float64) {
		f.Reset(0)
		ends := []int{0}
		for _, op := range ops {
			e := f.AddWire(ends[int(op.parentSel)%len(ends)], op.length, 0.0021, 0.19)
			if op.load > 0 {
				f.AddLoad(e, op.load)
			}
			ends = append(ends, e)
		}
		tc = f.TotalCap()
		am1, am2 := f.Moments()
		return tc, append([]float64(nil), am1...), append([]float64(nil), am2...)
	}

	tcA, m1A, m2A := run(opsA)
	run(opsB)
	tcA2, m1A2, m2A2 := run(opsA)
	if !bitsEq(tcA, tcA2) {
		t.Fatalf("TotalCap changed across reuse: %v vs %v", tcA, tcA2)
	}
	for i := range m1A {
		if !bitsEq(m1A[i], m1A2[i]) || !bitsEq(m2A[i], m2A2[i]) {
			t.Fatalf("moments[%d] leaked state across reuse", i)
		}
	}

	allocs := testing.AllocsPerRun(50, func() { run(opsA) })
	// run itself copies the moment slices and grows `ends`; only those
	// bounded bookkeeping allocations may remain — the Flat contributes
	// none once warm.
	if allocs > 6 {
		t.Fatalf("warm Flat reuse allocates %.1f/op; scratch is not being retained", allocs)
	}
}

// FuzzBuildFlatTree drives both builders over arbitrary topologies and
// per-µm RC values, asserting bitwise-equal structure, total cap, and
// moments — the equivalence the flat STA kernel's correctness rests on.
func FuzzBuildFlatTree(fz *testing.F) {
	fz.Add([]byte{1, 0, 200, 1, 16, 0, 0, 0, 90, 3, 0, 2})
	fz.Add([]byte{0, 0, 0, 0, 0, 0})
	fz.Add([]byte{2, 0, 255, 255, 255, 255, 1, 0, 10, 0, 0, 0, 3, 0, 4, 4, 4, 4})
	fz.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		rc, f := buildBoth(ops, 0.0021, 0.19)
		compareRC(t, rc, f)
		// Exercise the refill path: overwrite Res/Cap in place (as the
		// per-corner replay does) and confirm the cached topo still
		// matches a freshly built tree at the new values.
		rc2, _ := buildBoth(ops, 0.0021*1.05, 0.19*1.15)
		replayInto(f, ops, 0.0021*1.05, 0.19*1.15)
		lm1, lm2 := rc2.Moments()
		fm1, fm2 := f.Moments()
		for i := range lm1 {
			if !bitsEq(lm1[i], fm1[i]) || !bitsEq(lm2[i], fm2[i]) {
				t.Fatalf("refilled moments[%d]: legacy (%v,%v) flat (%v,%v)", i, lm1[i], lm2[i], fm1[i], fm2[i])
			}
		}
	})
}

// replayInto refills an already-built Flat's Res/Cap columns for a new
// per-µm RC without touching Parent, mirroring the STA kernel's
// per-corner replay: identical op order to AddWire/AddLoad.
func replayInto(f *Flat, ops []buildOp, rPer, cPer float64) {
	f.Cap[0] = 0
	idx := 1
	ends := []int{0}
	for _, op := range ops {
		parent := ends[int(op.parentSel)%len(ends)]
		segLen := op.length / float64(WireSegments)
		cur := parent
		for s := 0; s < WireSegments; s++ {
			w := segLen * cPer
			half := w / 2
			f.Res[idx] = segLen * rPer
			f.Cap[idx] = w - half
			f.Cap[cur] += half
			cur = idx
			idx++
		}
		if op.load > 0 {
			f.Cap[cur] += op.load
		}
		ends = append(ends, cur)
	}
}
