package edaio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

func buildDesign(t *testing.T) (*ctree.Design, *sta.Timer) {
	t.Helper()
	d, tm, err := testgen.Build(tech.Default28nm(), testgen.CLS1v1(120))
	if err != nil {
		t.Fatal(err)
	}
	return d, tm
}

func TestDesignJSONRoundTrip(t *testing.T) {
	d, tm := buildDesign(t)
	var buf bytes.Buffer
	if err := WriteDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name || d2.NumCells != d.NumCells || d2.Util != d.Util {
		t.Error("metadata not preserved")
	}
	if d2.Tree.NumNodes() != d.Tree.NumNodes() {
		t.Fatalf("node count %d != %d", d2.Tree.NumNodes(), d.Tree.NumNodes())
	}
	if len(d2.Pairs) != len(d.Pairs) {
		t.Fatalf("pairs %d != %d", len(d2.Pairs), len(d.Pairs))
	}
	if !d2.Die.Lo.Eq(d.Die.Lo) || !d2.Die.Hi.Eq(d.Die.Hi) {
		t.Error("die not preserved")
	}
	// Timing must be byte-identical between original and round-tripped.
	a1 := tm.Analyze(d.Tree)
	a2 := tm.Analyze(d2.Tree)
	for _, s := range d.Tree.Sinks() {
		for k := 0; k < a1.K; k++ {
			if a1.Latency(k, s) != a2.Latency(k, s) {
				t.Fatalf("latency differs after round trip at sink %d corner %d", s, k)
			}
		}
	}
}

func TestReadDesignErrors(t *testing.T) {
	// Decode failures are I/O errors, not design-validation errors.
	if _, err := ReadDesign(strings.NewReader(``)); err == nil || errors.Is(err, resilience.ErrInvalidDesign) {
		t.Errorf("decode failure misclassified: %v", err)
	}
	cases := []struct {
		name string
		json string
	}{
		{"no-nodes", `{"name":"x","nodes":[]}`},
		{"negative-id", `{"name":"x","source":0,"nodes":[{"id":-1,"kind":"source","parent":-1}]}`},
		{"unknown-kind", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"alien","parent":-1}]}`},
		{"duplicate-id", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1},{"id":0,"kind":"sink","parent":0}]}`},
		{"missing-parent", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1},{"id":1,"kind":"sink","parent":5}]}`},
		{"pair-missing-sink", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","cell":"C","parent":-1}],"pairs":[{"a":7,"b":8}]}`},
		{"nan-coord", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","x":"NaN","parent":-1}]}`},
		{"inf-coord", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","y":"+Inf","parent":-1}]}`},
		{"negative-detour", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1,"detour":-3}]}`},
		{"nan-detour", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1,"detour":"NaN"}]}`},
		{"sparse-ids", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1},{"id":99999999,"kind":"sink","parent":0}]}`},
		{"pair-non-sink", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1},{"id":1,"kind":"sink","parent":0}],"pairs":[{"a":0,"b":1}]}`},
		{"nan-crit", `{"name":"x","source":0,"nodes":[{"id":0,"kind":"source","parent":-1},{"id":1,"kind":"sink","parent":0},{"id":2,"kind":"sink","parent":0}],"pairs":[{"a":1,"b":2,"crit":"NaN"}]}`},
		{"nan-die", `{"name":"x","source":0,"die_hi_x":"NaN","nodes":[{"id":0,"kind":"source","parent":-1}]}`},
		{"inverted-die", `{"name":"x","source":0,"die_lo_x":10,"die_hi_x":5,"nodes":[{"id":0,"kind":"source","parent":-1}]}`},
	}
	for _, c := range cases {
		_, err := ReadDesign(strings.NewReader(c.json))
		if err == nil {
			t.Errorf("case %s accepted", c.name)
			continue
		}
		if !errors.Is(err, resilience.ErrInvalidDesign) {
			t.Errorf("case %s: err = %v, not ErrInvalidDesign", c.name, err)
		}
	}
}

func TestReadDesignWithCells(t *testing.T) {
	src := `{"name":"x","source":0,"nodes":[
		{"id":0,"kind":"source","cell":"BUFX8","parent":-1},
		{"id":1,"kind":"sink","cell":"DFF","parent":0}]}`
	known := func(name string) bool { return name == "BUFX8" }
	// Sink cells are not checked; source/buffer cells are.
	if _, err := ReadDesign(strings.NewReader(src), WithCells(known)); err != nil {
		t.Fatalf("known cell rejected: %v", err)
	}
	_, err := ReadDesign(strings.NewReader(src), WithCells(func(string) bool { return false }))
	if !errors.Is(err, resilience.ErrInvalidDesign) {
		t.Fatalf("unknown cell: err = %v", err)
	}
}

func TestWriteDEF(t *testing.T) {
	d, _ := buildDesign(t)
	var buf bytes.Buffer
	if err := WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VERSION 5.8", "DIEAREA", "COMPONENTS", "END COMPONENTS", "NETS", "USE CLOCK", "END DESIGN"} {
		if !strings.Contains(out, want) {
			t.Errorf("DEF missing %q", want)
		}
	}
	// Every sink appears as a component.
	if got := strings.Count(out, " CK )"); got != len(d.Tree.Sinks()) {
		t.Errorf("sink pins in nets = %d, want %d", got, len(d.Tree.Sinks()))
	}
}

func TestWriteSPEF(t *testing.T) {
	d, tm := buildDesign(t)
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, d, tm.Tech, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"*SPEF", "*D_NET", "*CONN", "*RES", "*END"} {
		if !strings.Contains(out, want) {
			t.Errorf("SPEF missing %q", want)
		}
	}
	if err := WriteSPEF(&buf, d, tm.Tech, 99); err == nil {
		t.Error("bad corner accepted")
	}
}

func TestTimingReport(t *testing.T) {
	d, tm := buildDesign(t)
	var buf bytes.Buffer
	if err := TimingReport(&buf, d, tm); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Timing report", "max latency", "local skew", "normalized skew variation"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// All three corners reported.
	if strings.Count(out, "Corner ") != 3 {
		t.Errorf("corner sections: %d", strings.Count(out, "Corner "))
	}
}
