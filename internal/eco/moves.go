// Package eco implements the engineering-change-order layer of the
// framework: the Table-2 local move set (buffer sizing/displacement, child
// sizing, tree surgery) used by the iterative local optimization, and the
// Algorithm-1 LP-guided inverter-pair re-insertion used by the global
// optimization.
package eco

import (
	"fmt"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/tech"
)

// MoveType classifies the paper's three local move families (Figure 4).
type MoveType int

// Move families.
const (
	TypeI   MoveType = iota + 1 // sizing and/or displacement of a buffer
	TypeII                      // displacement of a buffer + sizing of one child
	TypeIII                     // tree surgery: driver reassignment
)

// String implements fmt.Stringer.
func (m MoveType) String() string {
	switch m {
	case TypeI:
		return "I"
	case TypeII:
		return "II"
	case TypeIII:
		return "III"
	}
	return fmt.Sprintf("MoveType(%d)", int(m))
}

// DisplaceStep is the displacement quantum of Table 2 (10µm).
const DisplaceStep = 10.0

// SurgeryWindow is the Type-III candidate-driver window (50µm × 50µm).
const SurgeryWindow = 50.0

// Move is one candidate local move.
type Move struct {
	Type     MoveType
	Buffer   ctree.NodeID // the buffer being perturbed
	DX, DY   float64      // displacement applied to Buffer (Type I/II)
	SizeStep int          // −1/0/+1 one-step sizing
	Child    ctree.NodeID // Type II: child whose size changes; Type III: node reassigned
	NewDrv   ctree.NodeID // Type III: the new driver
}

// String implements fmt.Stringer.
func (m Move) String() string {
	switch m.Type {
	case TypeIII:
		return fmt.Sprintf("III{%d→drv %d}", m.Child, m.NewDrv)
	case TypeII:
		return fmt.Sprintf("II{buf %d d(%+.0f,%+.0f) child %d size%+d}", m.Buffer, m.DX, m.DY, m.Child, m.SizeStep)
	default:
		return fmt.Sprintf("I{buf %d d(%+.0f,%+.0f) size%+d}", m.Buffer, m.DX, m.DY, m.SizeStep)
	}
}

var directions = [8][2]float64{
	{0, 1}, {0, -1}, {1, 0}, {-1, 0},
	{1, 1}, {1, -1}, {-1, 1}, {-1, -1},
}

// Enumerate lists the Table-2 candidate moves for one buffer (see
// AppendMoves); it returns nil when there are none.
func Enumerate(tr *ctree.Tree, t *tech.Tech, buf ctree.NodeID, die geom.Rect) []Move {
	return AppendMoves(nil, tr, t, buf, die)
}

// AppendMoves appends the Table-2 candidate moves for one buffer to dst
// and returns the extended slice:
//
//	Type I:   displace {N,S,E,W,NE,NW,SE,SW} by 10µm × one-step up/down/keep
//	          sizing, plus pure sizing;
//	Type II:  the eight displacements × one-step up/down sizing on one child
//	          buffer (first two buffer children considered);
//	Type III: reassign one child to a same-level driver within the 50×50µm
//	          window around the child.
func AppendMoves(dst []Move, tr *ctree.Tree, t *tech.Tech, buf ctree.NodeID, die geom.Rect) []Move {
	n := tr.Node(buf)
	if n == nil || n.Kind != ctree.KindBuffer {
		return dst
	}
	cell := t.CellByName(n.CellName)
	if cell == nil {
		return dst
	}
	var stepBuf [3]int
	steps := append(stepBuf[:0], 0)
	if t.UpSize(cell) != cell {
		steps = append(steps, 1)
	}
	if t.DownSize(cell) != cell {
		steps = append(steps, -1)
	}
	// Type I.
	for _, d := range directions {
		p := geom.Pt(n.Loc.X+d[0]*DisplaceStep, n.Loc.Y+d[1]*DisplaceStep)
		if !die.Contains(p) {
			continue
		}
		for _, s := range steps {
			dst = append(dst, Move{Type: TypeI, Buffer: buf, DX: d[0] * DisplaceStep, DY: d[1] * DisplaceStep, SizeStep: s})
		}
	}
	for _, s := range steps {
		if s != 0 {
			dst = append(dst, Move{Type: TypeI, Buffer: buf, SizeStep: s})
		}
	}
	// Type II: displacement × child sizing, for up to two buffer children.
	// The pin list stays on the stack unless the buffer drives more pins
	// than pinBuf holds.
	var pinBuf [24]ctree.NodeID
	pins := tr.AppendFanoutPins(pinBuf[:0], buf)
	var kidBuf [2]ctree.NodeID
	bufKids := kidBuf[:0]
	for _, c := range pins {
		if tr.Node(c).Kind == ctree.KindBuffer {
			bufKids = append(bufKids, c)
			if len(bufKids) == 2 {
				break
			}
		}
	}
	for _, ck := range bufKids {
		ccell := t.CellByName(tr.Node(ck).CellName)
		if ccell == nil {
			continue
		}
		var cstepBuf [2]int
		csteps := cstepBuf[:0]
		if t.UpSize(ccell) != ccell {
			csteps = append(csteps, 1)
		}
		if t.DownSize(ccell) != ccell {
			csteps = append(csteps, -1)
		}
		for _, d := range directions {
			p := geom.Pt(n.Loc.X+d[0]*DisplaceStep, n.Loc.Y+d[1]*DisplaceStep)
			if !die.Contains(p) {
				continue
			}
			for _, s := range csteps {
				dst = append(dst, Move{Type: TypeII, Buffer: buf, DX: d[0] * DisplaceStep, DY: d[1] * DisplaceStep, Child: ck, SizeStep: s})
			}
		}
	}
	// Type III: reassign each child pin of this buffer to a same-level
	// driver within the window. Candidates are the tree's buffers in
	// ascending id order.
	for _, ck := range pins {
		cn := tr.Node(ck)
		lvl := tr.Level(ck)
		win := geom.NewRect(
			geom.Pt(cn.Loc.X-SurgeryWindow/2, cn.Loc.Y-SurgeryWindow/2),
			geom.Pt(cn.Loc.X+SurgeryWindow/2, cn.Loc.Y+SurgeryWindow/2),
		)
		for _, cb := range tr.Nodes {
			if cb == nil || cb.Kind != ctree.KindBuffer || cb.ID == buf || cb.ID == ck {
				continue
			}
			if !win.Contains(cb.Loc) {
				continue
			}
			// Same level: the candidate drives nodes at the child's level.
			if tr.Level(cb.ID)+1 != lvl {
				continue
			}
			// No cycles: candidate must not live under the child.
			if inSubtree(tr, ck, cb.ID) {
				continue
			}
			dst = append(dst, Move{Type: TypeIII, Buffer: buf, Child: ck, NewDrv: cb.ID})
		}
	}
	return dst
}

func inSubtree(tr *ctree.Tree, root, q ctree.NodeID) bool {
	for cur := q; cur != ctree.NoNode; cur = tr.Node(cur).Parent {
		if cur == root {
			return true
		}
	}
	return false
}

// Apply executes a move on the tree in place, snapping displaced buffers to
// legal sites. The tree must be a clone if the caller wants to keep the
// original.
func Apply(tr *ctree.Tree, t *tech.Tech, lg *legalize.Legalizer, m Move) error {
	n := tr.Node(m.Buffer)
	if n == nil {
		return fmt.Errorf("eco: move on missing buffer %d", m.Buffer)
	}
	switch m.Type {
	case TypeI:
		if m.DX != 0 || m.DY != 0 {
			n.Loc = lg.Snap(geom.Pt(n.Loc.X+m.DX, n.Loc.Y+m.DY))
		}
		if m.SizeStep != 0 {
			if err := resize(tr, t, m.Buffer, m.SizeStep); err != nil {
				return err
			}
		}
	case TypeII:
		if m.DX != 0 || m.DY != 0 {
			n.Loc = lg.Snap(geom.Pt(n.Loc.X+m.DX, n.Loc.Y+m.DY))
		}
		if err := resize(tr, t, m.Child, m.SizeStep); err != nil {
			return err
		}
	case TypeIII:
		if err := tr.ReassignParent(m.Child, m.NewDrv); err != nil {
			return err
		}
	default:
		return fmt.Errorf("eco: unknown move type %v", m.Type)
	}
	return nil
}

func resize(tr *ctree.Tree, t *tech.Tech, id ctree.NodeID, step int) error {
	n := tr.Node(id)
	if n == nil || n.Kind != ctree.KindBuffer {
		return fmt.Errorf("eco: resize of non-buffer %d", id)
	}
	cell := t.CellByName(n.CellName)
	if cell == nil {
		return fmt.Errorf("eco: unknown cell %q", n.CellName)
	}
	switch {
	case step > 0:
		n.CellName = t.UpSize(cell).Name
	case step < 0:
		n.CellName = t.DownSize(cell).Name
	}
	return nil
}
