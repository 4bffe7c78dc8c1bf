package tech

import (
	"math"
	"math/rand"
	"testing"
)

func TestDefault28nmValidates(t *testing.T) {
	th := Default28nm()
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	if th.NumCorners() != 4 {
		t.Errorf("corners = %d, want 4", th.NumCorners())
	}
	if len(th.Cells) != 5 {
		t.Errorf("cells = %d, want 5", len(th.Cells))
	}
}

func TestTable3CornerNames(t *testing.T) {
	cs := Table3Corners()
	want := []struct {
		name string
		p    Process
		v    float64
		b    BEOL
	}{
		{"c0", SS, 0.90, Cmax},
		{"c1", SS, 0.75, Cmax},
		{"c2", FF, 1.10, Cmin},
		{"c3", FF, 1.32, Cmin},
	}
	for i, w := range want {
		c := cs[i]
		if c.Name != w.name || c.Process != w.p || c.Voltage != w.v || c.BEOL != w.b {
			t.Errorf("corner %d = %v", i, c)
		}
	}
}

func TestProcessAndBEOLStrings(t *testing.T) {
	if SS.String() != "ss" || TT.String() != "tt" || FF.String() != "ff" {
		t.Error("process strings")
	}
	if Process(9).String() == "" || BEOL(9).String() == "" {
		t.Error("out-of-range enum strings empty")
	}
	if Cmax.String() != "Cmax" || Cmin.String() != "Cmin" || Ctyp.String() != "Ctyp" {
		t.Error("BEOL strings")
	}
	c := Table3Corners()[0]
	if c.String() == "" {
		t.Error("corner string empty")
	}
}

func TestDelayFactorOrdering(t *testing.T) {
	cs := Table3Corners()
	k := make([]float64, 4)
	for i, c := range cs {
		k[i] = DelayFactor(c)
	}
	// c1 (low voltage, ss) must be the slowest, c3 (1.32V ff) the fastest.
	if !(k[1] > k[0] && k[0] > k[2] && k[2] > k[3]) {
		t.Errorf("delay factors not ordered: %v", k)
	}
	// c1/c0 ratio should be in the vicinity of the paper's observed ~2-2.5×.
	if r := k[1] / k[0]; r < 1.4 || r > 3.0 {
		t.Errorf("c1/c0 ratio = %v, out of plausible range", r)
	}
}

func TestTableLookupBilinear(t *testing.T) {
	tab := &Table2D{
		SlewAxis: []float64{0, 10},
		LoadAxis: []float64{0, 10},
		Vals:     [][]float64{{0, 10}, {10, 20}},
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	if v := tab.Lookup(5, 5); math.Abs(v-10) > 1e-12 {
		t.Errorf("center = %v, want 10", v)
	}
	if v := tab.Lookup(0, 0); v != 0 {
		t.Errorf("corner = %v", v)
	}
	// Extrapolation beyond the grid continues the edge slope.
	if v := tab.Lookup(20, 0); math.Abs(v-20) > 1e-12 {
		t.Errorf("extrapolated = %v, want 20", v)
	}
	if v := tab.Lookup(-10, 0); math.Abs(v+10) > 1e-12 {
		t.Errorf("extrapolated low = %v, want -10", v)
	}
}

func TestTableCheckErrors(t *testing.T) {
	bad := []*Table2D{
		{SlewAxis: []float64{1}, LoadAxis: []float64{1, 2}, Vals: [][]float64{{1, 2}}},
		{SlewAxis: []float64{2, 1}, LoadAxis: []float64{1, 2}, Vals: [][]float64{{1, 2}, {3, 4}}},
		{SlewAxis: []float64{1, 2}, LoadAxis: []float64{2, 1}, Vals: [][]float64{{1, 2}, {3, 4}}},
		{SlewAxis: []float64{1, 2}, LoadAxis: []float64{1, 2}, Vals: [][]float64{{1, 2}}},
		{SlewAxis: []float64{1, 2}, LoadAxis: []float64{1, 2}, Vals: [][]float64{{1, 2}, {3}}},
	}
	for i, tab := range bad {
		if err := tab.Check(); err == nil {
			t.Errorf("bad table %d passed Check", i)
		}
	}
}

func TestDelayMonotoneInLoadAndDrive(t *testing.T) {
	th := Default28nm()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(th.NumCorners())
		ci := rng.Intn(len(th.Cells))
		slew := 5 + rng.Float64()*300
		load := 1 + rng.Float64()*120
		c := th.Cells[ci]
		d1 := c.DelayPS(k, slew, load)
		d2 := c.DelayPS(k, slew, load*1.5)
		if d2 <= d1 {
			t.Fatalf("delay not increasing in load: %s corner %d", c.Name, k)
		}
		if ci+1 < len(th.Cells) {
			stronger := th.Cells[ci+1].DelayPS(k, slew, load)
			if stronger >= d1 {
				t.Fatalf("stronger cell not faster: %s vs %s corner %d load %.1f",
					th.Cells[ci+1].Name, c.Name, k, load)
			}
		}
	}
}

func TestSlewMonotoneInLoad(t *testing.T) {
	th := Default28nm()
	c := th.Cells[2]
	for k := range th.Corners {
		if c.OutSlewPS(k, 40, 60) <= c.OutSlewPS(k, 40, 20) {
			t.Errorf("slew not increasing in load at corner %d", k)
		}
	}
}

func TestCornerDelayOrderingInTables(t *testing.T) {
	th := Default28nm()
	c := th.CellByName("CKINVX4")
	if c == nil {
		t.Fatal("CKINVX4 missing")
	}
	d := make([]float64, 4)
	for k := range th.Corners {
		d[k] = c.DelayPS(k, 40, 20)
	}
	if !(d[1] > d[0] && d[0] > d[2] && d[2] > d[3]) {
		t.Errorf("table delays not corner-ordered: %v", d)
	}
}

func TestCellLookupAndSizing(t *testing.T) {
	th := Default28nm()
	if th.CellByName("nope") != nil {
		t.Error("unknown cell found")
	}
	if th.CellIndex("nope") != -1 {
		t.Error("unknown cell index")
	}
	x1 := th.Cells[0]
	x16 := th.Cells[len(th.Cells)-1]
	if th.DownSize(x1) != x1 {
		t.Error("DownSize below X1 should saturate")
	}
	if th.UpSize(x16) != x16 {
		t.Error("UpSize above X16 should saturate")
	}
	if th.UpSize(x1).Drive != 2 {
		t.Errorf("UpSize(X1) = %v", th.UpSize(x1).Name)
	}
	if th.DownSize(x16).Drive != 8 {
		t.Errorf("DownSize(X16) = %v", th.DownSize(x16).Name)
	}
	foreign := &Cell{Name: "ALIEN"}
	if th.UpSize(foreign) != foreign || th.DownSize(foreign) != foreign {
		t.Error("sizing of unknown cell should be identity")
	}
}

func TestWireRC(t *testing.T) {
	th := Default28nm()
	// c0/c1 are Cmax; c2/c3 Cmin.
	if !(th.WireC(0) > th.WireC(2)) {
		t.Error("Cmax wire cap should exceed Cmin")
	}
	if !(th.WireR(0) > th.WireR(2)) {
		t.Error("Cmax wire res should exceed Cmin (correlated)")
	}
	if th.WireC(0) != th.WireC(1) {
		t.Error("same BEOL corners should match")
	}
}

func TestSubCorners(t *testing.T) {
	th := Default28nm()
	view, err := th.SubCorners("c0", "c1", "c3")
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
	if view.NumCorners() != 3 {
		t.Fatalf("view corners = %d", view.NumCorners())
	}
	if view.Corners[2].Name != "c3" {
		t.Errorf("view corner 2 = %s", view.Corners[2].Name)
	}
	// Index 2 of the view must alias the full tech's corner 3 tables.
	c := view.CellByName("CKINVX2")
	full := th.CellByName("CKINVX2")
	if c.DelayPS(2, 40, 20) != full.DelayPS(3, 40, 20) {
		t.Error("view table re-slicing wrong")
	}
	if _, err := th.SubCorners(); err == nil {
		t.Error("empty view did not error")
	}
	if _, err := th.SubCorners("cX"); err == nil {
		t.Error("unknown corner did not error")
	}
	if _, err := th.SubCorners("c1", "c0"); err == nil {
		t.Error("non-nominal-first view did not error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	th := Default28nm()
	th.Cells[0], th.Cells[1] = th.Cells[1], th.Cells[0]
	if err := th.Validate(); err == nil {
		t.Error("drive-order violation not caught")
	}
	th = Default28nm()
	th.Cells[0].Delay = th.Cells[0].Delay[:1]
	if err := th.Validate(); err == nil {
		t.Error("missing corner tables not caught")
	}
	th = Default28nm()
	th.WireRPerUM = 0
	if err := th.Validate(); err == nil {
		t.Error("zero wire R not caught")
	}
	th = Default28nm()
	th.Nominal = 99
	if err := th.Validate(); err == nil {
		t.Error("bad nominal not caught")
	}
	empty := &Tech{}
	if err := empty.Validate(); err == nil {
		t.Error("empty tech not caught")
	}
}

func TestLowSensitivityVariant(t *testing.T) {
	th := Default28nm()
	low := th.LowSensitivityVariant(0.6)
	if err := low.Validate(); err != nil {
		t.Fatal(err)
	}
	c := th.CellByName("CKINVX4")
	lc := low.CellByName("CKINVX4")
	// Nominal-corner delay unchanged; c1/c0 ratio compressed toward 1.
	if math.Abs(c.DelayPS(0, 40, 20)-lc.DelayPS(0, 40, 20)) > 1e-9 {
		t.Error("nominal delay changed")
	}
	r0 := c.DelayPS(1, 40, 20) / c.DelayPS(0, 40, 20)
	r1 := lc.DelayPS(1, 40, 20) / lc.DelayPS(0, 40, 20)
	if !(r1 < r0 && r1 > 1) {
		t.Errorf("ratio not compressed: %v → %v", r0, r1)
	}
	// Clamping.
	full := th.LowSensitivityVariant(2)
	fc := full.CellByName("CKINVX4")
	if math.Abs(fc.DelayPS(1, 40, 20)-fc.DelayPS(0, 40, 20)) > 1e-9 {
		t.Error("full compression not corner-flat")
	}
	if th.LowSensitivityVariant(-1).CellByName("CKINVX4").DelayPS(1, 40, 20) != c.DelayPS(1, 40, 20) {
		t.Error("negative compression changed cells")
	}
}
