package ml

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// roundTrip saves m as a bundle of one and loads it back, the path a
// persisted stage model takes.
func roundTrip(t *testing.T, m Model) Model {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModels(&buf, "one", []Model{m}); err != nil {
		t.Fatal(err)
	}
	kind, loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "one" || len(loaded) != 1 {
		t.Fatalf("bundle kind=%q n=%d", kind, len(loaded))
	}
	return loaded[0]
}

func checkSamePredictions(t *testing.T, a, b Model, X [][]float64) {
	t.Helper()
	for _, x := range X[:10] {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("predictions differ after round trip")
		}
	}
}

func TestPersistANN(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	X, y := synth(rng, 120, 3, 0.05)
	m, err := TrainANN(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSamePredictions(t, m, roundTrip(t, m), X)
}

func TestPersistSVR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	X, y := synth(rng, 120, 3, 0.05)
	m, err := TrainSVR(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSamePredictions(t, m, roundTrip(t, m), X)
}

func TestPersistRidge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	X, y := synth(rng, 120, 3, 0.05)
	m, err := TrainRidge(X, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	checkSamePredictions(t, m, roundTrip(t, m), X)
}

func TestPersistHSM(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	X, y := synth(rng, 150, 2, 0.05)
	m, err := TrainHSM(X, y, HSMConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, m)
	checkSamePredictions(t, m, m2, X)
	if h2 := m2.(*HSM); len(h2.Models) != 3 {
		t.Errorf("components after round trip: %d", len(h2.Models))
	}
}

func TestPersistBundle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	X, y := synth(rng, 100, 2, 0.05)
	var models []Model
	for k := 0; k < 3; k++ {
		m, err := TrainRidge(X, y, 1e-2)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	var buf bytes.Buffer
	if err := SaveModels(&buf, "ridge", models); err != nil {
		t.Fatal(err)
	}
	kind, loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "ridge" || len(loaded) != 3 {
		t.Fatalf("bundle kind=%q n=%d", kind, len(loaded))
	}
	checkSamePredictions(t, models[0], loaded[0], X)
}

func TestPersistErrors(t *testing.T) {
	for _, tc := range []struct{ what, doc string }{
		{"bad JSON", "{not json"},
		{"unknown kind", `{"models":[{"kind":"alien"}]}`},
		{"malformed ANN", `{"models":[{"kind":"ann"}]}`},
		{"malformed SVR", `{"models":[{"kind":"svr"}]}`},
		{"malformed ridge", `{"models":[{"kind":"ridge"}]}`},
		{"malformed HSM", `{"models":[{"kind":"hsm"}]}`},
		{"bad bundle", "zzz"},
	} {
		if _, _, err := LoadModels(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
	}
	type fake struct{ Model }
	if err := SaveModels(&bytes.Buffer{}, "fake", []Model{fake{}}); err == nil {
		t.Error("foreign model type accepted")
	}
}
