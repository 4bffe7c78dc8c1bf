package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"skewvar/internal/eco"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Golden digests of the stage-estimate encoding: FNV-1a over the
// math.Float64bits of every training row and every predicted move gain.
// Any change to the analytic estimators, the feature layout, the pre-move
// rule or the gain propagation shows up here as a digest mismatch; a
// refactor of that code must leave all four values unchanged.
const (
	wantDatasetRows   = 622 // per corner
	wantDatasetDigest = 0x0e0c5f1ba9c1abce
	wantScoredMoves   = 7672
	wantRidgeDigest   = 0x94cfa9d53e048a1f
	wantDeltaDigest   = 0xc14e83cabdb37d81
)

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func TestEstimatorDigest(t *testing.T) {
	ctx := context.Background()
	th := tech.Default28nm()
	ds, err := BuildDataset(ctx, th, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for k := range ds.X {
		for i, x := range ds.X[k] {
			hashFloats(h, x...)
			hashFloats(h, ds.Y[k][i], ds.Base[k][i])
		}
	}
	if ds.Len() != wantDatasetRows || h.Sum64() != wantDatasetDigest {
		t.Errorf("dataset: %d rows per corner, digest %#x; want %d rows, digest %#x",
			ds.Len(), h.Sum64(), wantDatasetRows, uint64(wantDatasetDigest))
	}

	ridge, err := TrainOnDataset(ctx, th, ds, TrainConfig{Kind: "ridge", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, tm, err := testgen.Build(th, testgen.CLS1v1(120))
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.TopPairs(40)
	alphas := sta.Alphas(tm.Analyze(d.Tree), pairs)
	var moves []eco.Move
	for _, b := range d.Tree.Buffers() {
		moves = append(moves, eco.Enumerate(d.Tree, tm.Tech, b, d.Die)...)
	}
	if len(moves) != wantScoredMoves {
		t.Errorf("scored %d moves, want %d", len(moves), wantScoredMoves)
	}
	for _, c := range []struct {
		model StageModel
		want  uint64
	}{
		{ridge, wantRidgeDigest},
		{DeltaBaselines()[RSMTD2M], wantDeltaDigest},
	} {
		sc := NewMoveScorer(tm, d.Tree, d.Die, alphas, pairs, c.model)
		h := fnv.New64a()
		for _, mv := range moves {
			hashFloats(h, sc.Gain(mv))
		}
		if h.Sum64() != c.want {
			t.Errorf("%s gains: digest %#x, want %#x", c.model.Name(), h.Sum64(), c.want)
		}
	}
}
