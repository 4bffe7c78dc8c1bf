package ml

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// Golden digest of the three trainers at their fixed settings (ANN layer
// widths, epochs, learning rate, batch and decay; SVR regularization, RBF
// width and support cap; HSM folds and ridge): FNV-1a over the
// math.Float64bits of every prediction on a fixed synthetic set. A change
// that legitimately moves a trained model updates the value and says why.
const wantTrainingDigest = 0xcd2c31e86d318009

func TestDefaultTrainingDigest(t *testing.T) {
	X, y := synth(rand.New(rand.NewSource(17)), 120, 8, 0.05)
	ann, err := TrainANN(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	svr, err := TrainSVR(X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	hsm, err := TrainHSM(X, y, HSMConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, m := range []Model{ann, svr, hsm} {
		for _, v := range predictAll(m, X) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if h.Sum64() != wantTrainingDigest {
		t.Errorf("training digest %#x, want %#x", h.Sum64(), uint64(wantTrainingDigest))
	}
}
