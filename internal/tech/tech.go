// Package tech models the process technology the optimizer runs against: PVT
// corners, a clock-inverter library with NLDM-style (input-slew × load)
// delay/slew lookup tables per corner, and per-corner wire RC.
//
// The paper targets a foundry 28nm LP technology with four signoff corners
// (Table 3). No such library can ship with an open-source reproduction, so
// this package *characterizes* an equivalent synthetic library from an
// analytic driver model: delays are generated once onto NLDM grids, and from
// then on every consumer (golden timer, LUT characterization, estimators)
// sees only table interpolation — exactly the way a real flow consumes a
// Liberty file. The analytic generator is tuned so that corner-to-corner
// delay ratios show the same qualitative behaviour the paper exploits:
// gate-dominated stages scale differently across corners than wire-dominated
// stages (the spread of Figure 2), and the slow-voltage corner (c1) runs
// ≈1.8–2.5× slower than nominal.
//
// Units: time ps, distance µm, capacitance fF, resistance kΩ (kΩ·fF = ps).
package tech

import (
	"fmt"
	"math"
)

// Process is the global transistor-speed corner.
type Process int

// Process corners.
const (
	SS Process = iota // slow-slow
	TT                // typical
	FF                // fast-fast
)

// String implements fmt.Stringer.
func (p Process) String() string {
	switch p {
	case SS:
		return "ss"
	case TT:
		return "tt"
	case FF:
		return "ff"
	}
	return fmt.Sprintf("Process(%d)", int(p))
}

// BEOL is the back-end-of-line (interconnect) corner.
type BEOL int

// BEOL corners.
const (
	Ctyp BEOL = iota
	Cmax
	Cmin
)

// String implements fmt.Stringer.
func (b BEOL) String() string {
	switch b {
	case Ctyp:
		return "Ctyp"
	case Cmax:
		return "Cmax"
	case Cmin:
		return "Cmin"
	}
	return fmt.Sprintf("BEOL(%d)", int(b))
}

// Corner is one PVT+BEOL signoff corner (a row of the paper's Table 3).
type Corner struct {
	Name    string
	Process Process
	Voltage float64 // supply, V
	TempC   float64 // junction temperature, °C
	BEOL    BEOL
}

// String implements fmt.Stringer.
func (c Corner) String() string {
	return fmt.Sprintf("%s(%s,%.2fV,%g°C,%s)", c.Name, c.Process, c.Voltage, c.TempC, c.BEOL)
}

// Table2D is an NLDM-style two-dimensional lookup table indexed by input
// slew (rows) and output load (cols). Axes are strictly increasing.
type Table2D struct {
	SlewAxis []float64 // ps
	LoadAxis []float64 // fF
	Vals     [][]float64
}

// locate returns the lower interval index for x on axis, clamped so that
// [i, i+1] is always a valid interval; values outside the axis range are
// linearly extrapolated from the edge interval (Liberty-style).
func locate(axis []float64, x float64) int {
	// Binary search for the interval.
	lo, hi := 0, len(axis)-2
	if x <= axis[0] {
		return 0
	}
	if x >= axis[len(axis)-1] {
		return len(axis) - 2
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if axis[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Lookup bilinearly interpolates (and edge-extrapolates) the table.
func (t *Table2D) Lookup(slew, load float64) float64 {
	i := locate(t.SlewAxis, slew)
	j := locate(t.LoadAxis, load)
	s0, s1 := t.SlewAxis[i], t.SlewAxis[i+1]
	l0, l1 := t.LoadAxis[j], t.LoadAxis[j+1]
	fs := (slew - s0) / (s1 - s0)
	fl := (load - l0) / (l1 - l0)
	v00 := t.Vals[i][j]
	v01 := t.Vals[i][j+1]
	v10 := t.Vals[i+1][j]
	v11 := t.Vals[i+1][j+1]
	return v00*(1-fs)*(1-fl) + v01*(1-fs)*fl + v10*fs*(1-fl) + v11*fs*fl
}

// Check validates table shape and axis monotonicity.
func (t *Table2D) Check() error {
	if len(t.SlewAxis) < 2 || len(t.LoadAxis) < 2 {
		return fmt.Errorf("tech: table axes need ≥2 points, got %d×%d", len(t.SlewAxis), len(t.LoadAxis))
	}
	for i := 1; i < len(t.SlewAxis); i++ {
		if t.SlewAxis[i] <= t.SlewAxis[i-1] {
			return fmt.Errorf("tech: slew axis not increasing at %d", i)
		}
	}
	for j := 1; j < len(t.LoadAxis); j++ {
		if t.LoadAxis[j] <= t.LoadAxis[j-1] {
			return fmt.Errorf("tech: load axis not increasing at %d", j)
		}
	}
	if len(t.Vals) != len(t.SlewAxis) {
		return fmt.Errorf("tech: %d value rows for %d slew points", len(t.Vals), len(t.SlewAxis))
	}
	for i, row := range t.Vals {
		if len(row) != len(t.LoadAxis) {
			return fmt.Errorf("tech: row %d has %d cols, want %d", i, len(row), len(t.LoadAxis))
		}
	}
	return nil
}

// Cell is a clock inverter with per-corner NLDM tables. Clock buffers in this
// project are inverter pairs (paper §4.1); a Cell models one inverter.
type Cell struct {
	Name  string
	Drive int     // relative drive strength: 1, 2, 4, 8, 16
	InCap float64 // input pin capacitance, fF
	Area  float64 // cell area, µm²
	// Delay and OutSlew are indexed by corner index within the owning Tech.
	Delay   []*Table2D
	OutSlew []*Table2D
	// kFactor is the per-corner analytic speed multiplier, retained so the
	// golden timer can evaluate the underlying model exactly.
	kFactor []float64
}

// DelayPS returns the golden ("SPICE-accurate") gate delay at the corner:
// the exact analytic model when available, table interpolation otherwise.
func (c *Cell) DelayPS(corner int, slewIn, load float64) float64 {
	if corner < len(c.kFactor) {
		return analyticDelay(c.kFactor[corner], c.Drive, slewIn, load)
	}
	return c.Delay[corner].Lookup(slewIn, load)
}

// OutSlewPS returns the golden output slew at the corner (exact model when
// available).
func (c *Cell) OutSlewPS(corner int, slewIn, load float64) float64 {
	if corner < len(c.kFactor) {
		return analyticSlew(c.kFactor[corner], c.Drive, slewIn, load)
	}
	return c.OutSlew[corner].Lookup(slewIn, load)
}

// TableDelayPS returns the NLDM-interpolated gate delay — what a
// Liberty-consuming estimator sees. It differs from DelayPS by the
// interpolation error of the characterization grid.
func (c *Cell) TableDelayPS(corner int, slewIn, load float64) float64 {
	return c.Delay[corner].Lookup(slewIn, load)
}

// TableOutSlewPS returns the NLDM-interpolated output slew.
func (c *Cell) TableOutSlewPS(corner int, slewIn, load float64) float64 {
	return c.OutSlew[corner].Lookup(slewIn, load)
}

// Tech bundles everything the flow needs to know about the process.
type Tech struct {
	Name    string
	Corners []Corner
	Nominal int // index of the nominal corner c0

	Cells []*Cell // ascending drive strength

	// Wire RC at the typical BEOL corner; per-corner values via WireR/WireC.
	WireRPerUM float64 // kΩ/µm
	WireCPerUM float64 // fF/µm

	SinkCap float64 // FF clock-pin capacitance, fF

	// Design rules applied during CTS and ECO, at the nominal corner.
	MaxLoad float64 // fF
	MaxSlew float64 // ps

	// Placement geometry for the legalizer.
	SiteW float64 // µm
	RowH  float64 // µm

	ClockFreqGHz float64 // for power reporting
}

// beolFactors returns (rScale, cScale) for a BEOL corner.
func beolFactors(b BEOL) (rs, cs float64) {
	switch b {
	case Cmax:
		return 1.05, 1.15
	case Cmin:
		return 0.95, 0.85
	default:
		return 1, 1
	}
}

// WireR returns wire resistance per µm at corner k.
func (t *Tech) WireR(k int) float64 {
	rs, _ := beolFactors(t.Corners[k].BEOL)
	return t.WireRPerUM * rs
}

// WireC returns wire capacitance per µm at corner k.
func (t *Tech) WireC(k int) float64 {
	_, cs := beolFactors(t.Corners[k].BEOL)
	return t.WireCPerUM * cs
}

// NumCorners returns the number of analysis corners.
func (t *Tech) NumCorners() int { return len(t.Corners) }

// CellByName returns the named cell, or nil.
func (t *Tech) CellByName(name string) *Cell {
	for _, c := range t.Cells {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// CellIndex returns the index of the named cell in the drive-ordered list,
// or -1.
func (t *Tech) CellIndex(name string) int {
	for i, c := range t.Cells {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// UpSize returns the next-stronger cell, or the same cell at the top of the
// range ("one-step up sizing" of Table 2).
func (t *Tech) UpSize(c *Cell) *Cell {
	i := t.CellIndex(c.Name)
	if i < 0 || i == len(t.Cells)-1 {
		return c
	}
	return t.Cells[i+1]
}

// DownSize returns the next-weaker cell, or the same cell at the bottom.
func (t *Tech) DownSize(c *Cell) *Cell {
	i := t.CellIndex(c.Name)
	if i <= 0 {
		return c
	}
	return t.Cells[i-1]
}

// DelayFactor is the analytic corner speed multiplier used during
// characterization: the composite of process, voltage and temperature
// effects relative to a hypothetical TT/0.9V/25°C device.
func DelayFactor(c Corner) float64 {
	var proc float64
	var tempCo float64
	switch c.Process {
	case SS:
		proc = 1.30
		tempCo = -0.0003 // temperature inversion at the slow/low-V corner
	case FF:
		proc = 0.80
		tempCo = +0.0003
	default:
		proc = 1.0
		tempCo = +0.0001
	}
	const (
		vRef  = 0.90
		vth   = 0.32
		gamma = 1.9
	)
	volt := math.Pow((vRef-vth)/(c.Voltage-vth), gamma)
	temp := 1 + tempCo*(c.TempC-25)
	return proc * volt * temp
}

// characterization constants for the analytic inverter model.
const (
	baseDriveRes  = 2.6  // kΩ for the X1 inverter at the reference corner
	baseIntrinsic = 9.0  // ps intrinsic delay at the reference corner
	baseInCap     = 1.05 // fF input cap of X1
	baseParCap    = 0.55 // fF output parasitic of X1
	slewSens      = 0.11 // delay sensitivity to input slew (dimensionless)
	slewGain      = 1.9  // output slew vs Rdrv·Cload
	slewFloor     = 4.5  // ps minimum output slew
	crossTerm     = 7e-4 // mild slew×load nonlinearity, ps/(ps·fF)
	baseAreaX1    = 1.6  // µm² for X1 (two-inverter pair footprint is 2×)
	slewSat       = 120  // ps half-saturation of the slew→drive interaction
	sqrtLoadTerm  = 1.3  // ps·√x weight of the sub-linear load response
)

// analyticDelay is the "silicon" behind the library: the golden timer
// evaluates it exactly, while the NLDM tables sample it on the
// characterization grid and downstream estimators interpolate those tables.
// The saturating slew interaction and the sub-linear load term make the
// response genuinely nonlinear, so table interpolation carries the small
// systematic error the paper's ML models absorb ("the interpolated delay
// values do not always match those from the golden timer's analysis",
// §4.2 / [8]).
func analyticDelay(k float64, drive int, slewIn, load float64) float64 {
	x := float64(drive)
	r := baseDriveRes / x
	cl := load + baseParCap*x
	slewFac := slewIn / (slewIn + slewSat)
	d := k*(baseIntrinsic+r*cl*0.69*(1+0.22*slewFac)) +
		slewSens*slewIn +
		crossTerm*slewIn*cl/x +
		k*sqrtLoadTerm*math.Sqrt(cl/x)
	return d
}

// analyticSlew is the generator behind the output-slew tables.
func analyticSlew(k float64, drive int, slewIn, load float64) float64 {
	x := float64(drive)
	r := baseDriveRes / x
	cl := load + baseParCap*x
	slewFac := slewIn / (slewIn + slewSat)
	s := k*(slewGain*r*cl)*(1+0.12*slewFac) + 0.10*slewIn + slewFloor + k*0.8*math.Sqrt(cl/x)
	return s
}

// characterizeCell builds per-corner NLDM tables for one drive strength.
func characterizeCell(drive int, corners []Corner) *Cell {
	slews := []float64{5, 10, 20, 40, 80, 160, 320, 640}
	loads := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	c := &Cell{
		Name:  fmt.Sprintf("CKINVX%d", drive),
		Drive: drive,
		InCap: baseInCap * float64(drive),
		Area:  baseAreaX1 * float64(drive),
	}
	for _, cor := range corners {
		k := DelayFactor(cor)
		c.kFactor = append(c.kFactor, k)
		dt := &Table2D{SlewAxis: slews, LoadAxis: loads}
		st := &Table2D{SlewAxis: slews, LoadAxis: loads}
		for _, s := range slews {
			var drow, srow []float64
			for _, l := range loads {
				drow = append(drow, analyticDelay(k, drive, s, l))
				srow = append(srow, analyticSlew(k, drive, s, l))
			}
			dt.Vals = append(dt.Vals, drow)
			st.Vals = append(st.Vals, srow)
		}
		c.Delay = append(c.Delay, dt)
		c.OutSlew = append(c.OutSlew, st)
	}
	return c
}

// Table3Corners returns the paper's Table 3: the four 28nm LP signoff
// corners. c0 is the nominal corner.
func Table3Corners() []Corner {
	return []Corner{
		{Name: "c0", Process: SS, Voltage: 0.90, TempC: -25, BEOL: Cmax},
		{Name: "c1", Process: SS, Voltage: 0.75, TempC: -25, BEOL: Cmax},
		{Name: "c2", Process: FF, Voltage: 1.10, TempC: 125, BEOL: Cmin},
		{Name: "c3", Process: FF, Voltage: 1.32, TempC: 125, BEOL: Cmin},
	}
}

// Default28nm characterizes the full synthetic 28nm-LP-flavoured technology:
// four corners, five clock inverter sizes (X1..X16), wire RC, design rules
// and placement geometry.
func Default28nm() *Tech {
	corners := Table3Corners()
	t := &Tech{
		Name:         "synth28lp",
		Corners:      corners,
		Nominal:      0,
		WireRPerUM:   0.0021, // 2.1 Ω/µm
		WireCPerUM:   0.19,   // fF/µm
		SinkCap:      0.85,
		MaxLoad:      90,
		MaxSlew:      220,
		SiteW:        0.19,
		RowH:         1.2,
		ClockFreqGHz: 1.0,
	}
	for _, d := range []int{1, 2, 4, 8, 16} {
		t.Cells = append(t.Cells, characterizeCell(d, corners))
	}
	return t
}

// SubCorners returns a shallow technology view restricted to the named
// corners (e.g. {c0,c1,c3} for CLS1 or {c0,c1,c2} for CLS2). Cell tables are
// re-sliced so corner index i in the view corresponds to names[i]. The
// nominal corner must be first.
func (t *Tech) SubCorners(names ...string) (*Tech, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("tech: SubCorners needs at least one corner")
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = -1
		for j, c := range t.Corners {
			if c.Name == n {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("tech: unknown corner %q", n)
		}
	}
	if idx[0] != t.Nominal {
		return nil, fmt.Errorf("tech: first corner of a view must be the nominal corner %s", t.Corners[t.Nominal].Name)
	}
	view := *t
	view.Corners = make([]Corner, len(idx))
	for i, j := range idx {
		view.Corners[i] = t.Corners[j]
	}
	view.Nominal = 0
	view.Cells = make([]*Cell, len(t.Cells))
	for ci, c := range t.Cells {
		nc := &Cell{Name: c.Name, Drive: c.Drive, InCap: c.InCap, Area: c.Area}
		for _, j := range idx {
			nc.Delay = append(nc.Delay, c.Delay[j])
			nc.OutSlew = append(nc.OutSlew, c.OutSlew[j])
			if j < len(c.kFactor) {
				nc.kFactor = append(nc.kFactor, c.kFactor[j])
			}
		}
		view.Cells[ci] = nc
	}
	return &view, nil
}

// Validate checks internal consistency of the technology.
func (t *Tech) Validate() error {
	if len(t.Corners) == 0 {
		return fmt.Errorf("tech: no corners")
	}
	if t.Nominal < 0 || t.Nominal >= len(t.Corners) {
		return fmt.Errorf("tech: nominal corner index %d out of range", t.Nominal)
	}
	if len(t.Cells) == 0 {
		return fmt.Errorf("tech: no cells")
	}
	for i, c := range t.Cells {
		if len(c.Delay) != len(t.Corners) || len(c.OutSlew) != len(t.Corners) {
			return fmt.Errorf("tech: cell %s has tables for %d corners, want %d", c.Name, len(c.Delay), len(t.Corners))
		}
		if i > 0 && c.Drive <= t.Cells[i-1].Drive {
			return fmt.Errorf("tech: cells not in ascending drive order at %s", c.Name)
		}
		for k := range t.Corners {
			if err := c.Delay[k].Check(); err != nil {
				return fmt.Errorf("cell %s corner %d delay: %w", c.Name, k, err)
			}
			if err := c.OutSlew[k].Check(); err != nil {
				return fmt.Errorf("cell %s corner %d slew: %w", c.Name, k, err)
			}
		}
	}
	if t.WireRPerUM <= 0 || t.WireCPerUM <= 0 {
		return fmt.Errorf("tech: non-positive wire RC")
	}
	return nil
}

// LowSensitivityVariant derives a technology whose cells are less sensitive
// to corner variation: each cell's per-corner speed factors are compressed
// toward the nominal corner's by the given factor (0 = no change, 1 = fully
// corner-insensitive). This implements the paper's future-work item (iii) —
// "new library cells whose delay and slew are less sensitive to corner
// variation so as to enable fine-grained ECOs" — as a what-if library for
// ablation studies. Tables are re-characterized from the compressed factors.
func (t *Tech) LowSensitivityVariant(compress float64) *Tech {
	if compress < 0 {
		compress = 0
	}
	if compress > 1 {
		compress = 1
	}
	v := *t
	v.Name = t.Name + "-lowsens"
	v.Cells = make([]*Cell, len(t.Cells))
	slews := t.Cells[0].Delay[0].SlewAxis
	loads := t.Cells[0].Delay[0].LoadAxis
	for ci, c := range t.Cells {
		nc := &Cell{Name: c.Name, Drive: c.Drive, InCap: c.InCap, Area: c.Area}
		kNom := c.kFactor[t.Nominal]
		for k := range t.Corners {
			kf := c.kFactor[k] + compress*(kNom-c.kFactor[k])
			nc.kFactor = append(nc.kFactor, kf)
			dt := &Table2D{SlewAxis: slews, LoadAxis: loads}
			st := &Table2D{SlewAxis: slews, LoadAxis: loads}
			for _, s := range slews {
				var drow, srow []float64
				for _, l := range loads {
					drow = append(drow, analyticDelay(kf, c.Drive, s, l))
					srow = append(srow, analyticSlew(kf, c.Drive, s, l))
				}
				dt.Vals = append(dt.Vals, drow)
				st.Vals = append(st.Vals, srow)
			}
			nc.Delay = append(nc.Delay, dt)
			nc.OutSlew = append(nc.OutSlew, st)
		}
		v.Cells[ci] = nc
	}
	return &v
}
