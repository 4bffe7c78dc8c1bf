package rctree

import (
	"encoding/binary"
	"math"
	"testing"
)

// buildOp is one decoded fuzz operation: attach a wire under an existing
// node, optionally with a pin load at its far end or, when loadSel is
// nonzero, at an earlier node (the root included).
type buildOp struct {
	parentSel uint16
	length    float64
	load      float64
	loadSel   uint16
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
			loadSel:   praw >> 9,
		})
	}
	return ops
}

// opsBuilder is the call surface Builder and Flat share.
type opsBuilder interface {
	AddWire(parent int, lengthUM, rPerUM, cPerUM float64) int
	AddLoad(node int, capFF float64)
}

// applyOps issues the operation list's AddWire/AddLoad calls, tracking
// wire ends in the caller-owned ends slice (returned for reuse).
func applyOps(b opsBuilder, ops []buildOp, rPer, cPer float64, ends []int) []int {
	ends = append(ends[:0], 0)
	for _, op := range ops {
		e := b.AddWire(ends[int(op.parentSel)%len(ends)], op.length, rPer, cPer)
		ends = append(ends, e)
		if op.load > 0 {
			at := e
			if op.loadSel > 0 {
				at = ends[int(op.loadSel)%len(ends)]
			}
			b.AddLoad(at, op.load)
		}
	}
	return ends
}

// buildRef constructs the operation list through the legacy Builder.
func buildRef(ops []buildOp, rootCap, rPer, cPer float64) *RC {
	b := NewBuilder(rootCap)
	applyOps(b, ops, rPer, cPer, nil)
	return b.Done()
}

// buildBoth constructs the same topology through the legacy Builder and
// a Flat, returning both.
func buildBoth(ops []buildOp, rootCap, rPer, cPer float64) (*RC, *Flat) {
	f := &Flat{}
	f.Reset(rootCap)
	applyOps(f, ops, rPer, cPer, nil)
	return buildRef(ops, rootCap, rPer, cPer), f
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// compareRC asserts the flat tree matches the legacy tree bit for bit:
// structure, R/C columns, total cap, and both moments. It also asserts
// that every node's parent index is below its own, the invariant
// Flat.Moments' index-order sweeps rely on.
func compareRC(t *testing.T, rc *RC, f *Flat) {
	t.Helper()
	if len(rc.Parent) != f.Len() {
		t.Fatalf("node count: legacy %d flat %d", len(rc.Parent), f.Len())
	}
	for i := range rc.Parent {
		if int32(rc.Parent[i]) != f.Parent[i] {
			t.Fatalf("parent[%d]: legacy %d flat %d", i, rc.Parent[i], f.Parent[i])
		}
		if i > 0 && f.Parent[i] >= int32(i) {
			t.Fatalf("parent[%d] = %d: a parent's index must be below its child's", i, f.Parent[i])
		}
		if !bitsEq(rc.Res[i], f.Res[i]) || !bitsEq(rc.Cap[i], f.Cap[i]) {
			t.Fatalf("RC[%d]: legacy (%v,%v) flat (%v,%v)", i, rc.Res[i], rc.Cap[i], f.Res[i], f.Cap[i])
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

// chainOps is a small mixed topology: branches, a zero-length wire, pin
// loads at wire ends, on an interior node after a child was attached, and
// on the root.
var chainOps = []buildOp{
	{parentSel: 0, length: 120, load: 1.2},
	{parentSel: 1, length: 35.5, load: 0},
	{parentSel: 2, length: 0, load: 3},
	{parentSel: 0, length: 480.25, load: 0.85, loadSel: 2},
	{parentSel: 3, length: 17, load: 0.5, loadSel: 5},
	{parentSel: 1, length: 0, load: 0},
}

func TestFlatMatchesLegacyOnChains(t *testing.T) {
	rc, f := buildBoth(chainOps, 0, 0.0021, 0.19)
	compareRC(t, rc, f)
}

// TestFlatReplayMatchesFreshBuild lays a tree out at one corner's wire
// R/C with a nonzero root cap and replays it at others: each replay must
// equal a fresh Builder build at that R/C bit for bit, and replaying the
// first R/C again must restore the original tree.
func TestFlatReplayMatchesFreshBuild(t *testing.T) {
	const rootCap = 2.75
	rcs := [][2]float64{{0.0021, 0.19}, {0.0021 * 1.05, 0.19 * 1.15}, {0.0017, 0.23}, {0.0021, 0.19}}
	_, f := buildBoth(chainOps, rootCap, rcs[0][0], rcs[0][1])
	for _, rc := range rcs {
		f.Replay(rc[0], rc[1])
		compareRC(t, buildRef(chainOps, rootCap, rc[0], rc[1]), f)
	}
}

// TestFlatResetReuse proves a pooled Flat reaches zero allocations and
// stays bit-identical after arbitrary interleaved reuse: build A and
// replay it, build B (different shape), rebuild A ⇒ identical bytes to
// the first A pass.
func TestFlatResetReuse(t *testing.T) {
	opsA := []buildOp{{0, 90, 2, 0}, {1, 45, 0, 0}, {0, 200, 1.1, 1}, {2, 10, 0.5, 0}}
	opsB := []buildOp{{0, 300, 0, 0}, {1, 300, 4, 0}, {2, 5, 0, 0}, {3, 77, 0, 0}, {1, 13, 2, 3}}

	f := &Flat{}
	var ends []int
	var tc float64
	var m1, m2 []float64
	run := func(ops []buildOp) {
		f.Reset(0.5)
		ends = applyOps(f, ops, 0.0021, 0.19, ends)
		f.Replay(0.0021*1.05, 0.19*1.15)
		tc = f.TotalCap()
		am1, am2 := f.Moments()
		m1 = append(m1[:0], am1...)
		m2 = append(m2[:0], am2...)
	}

	run(opsA)
	tcA, m1A, m2A := tc, append([]float64(nil), m1...), append([]float64(nil), m2...)
	run(opsB)
	run(opsA)
	if !bitsEq(tcA, tc) {
		t.Fatalf("TotalCap changed across reuse: %v vs %v", tcA, tc)
	}
	for i := range m1A {
		if !bitsEq(m1A[i], m1[i]) || !bitsEq(m2A[i], m2[i]) {
			t.Fatalf("moments[%d] leaked state across reuse", i)
		}
	}

	if allocs := testing.AllocsPerRun(50, func() { run(opsA) }); allocs != 0 {
		t.Fatalf("warm Flat build+replay allocates %.1f/op; scratch is not being retained", allocs)
	}
}

// FuzzBuildFlatTree drives both builders over arbitrary topologies and
// per-µm RC values, asserting bitwise-equal structure, total cap, and
// moments — the equivalence the flat STA kernel's correctness rests on —
// and then replays the Flat at a second corner's R/C, which must equal a
// fresh Builder build there. Odd-length inputs carry a root cap.
func FuzzBuildFlatTree(fz *testing.F) {
	fz.Add([]byte{1, 0, 200, 1, 16, 0, 0, 0, 90, 3, 0, 2})
	fz.Add([]byte{0, 0, 0, 0, 0, 0})
	fz.Add([]byte{2, 0, 255, 255, 255, 255, 1, 0, 10, 0, 0, 0, 3, 0, 4, 4, 4, 4})
	fz.Add([]byte{0, 0, 0, 0, 64, 4, 1, 0, 0, 0, 9, 6, 0, 0, 50, 0, 200, 2, 40})
	fz.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		rootCap := 0.0
		if len(data)%2 == 1 {
			rootCap = float64(data[len(data)-1]) / 32
		}
		rc, f := buildBoth(ops, rootCap, 0.0021, 0.19)
		compareRC(t, rc, f)
		f.Replay(0.0021*1.05, 0.19*1.15)
		compareRC(t, buildRef(ops, rootCap, 0.0021*1.05, 0.19*1.15), f)
	})
}
