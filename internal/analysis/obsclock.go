package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// obsclockScope is the observability emit surface: internal/obs promises
// that every recorded timestamp flows through the injected Clock, so the
// golden-trace tests can pin spans and events to a FakeClock. A direct
// wall-clock read anywhere else in the package would leak real time into
// traces those tests expect to be reproducible.
var obsclockScope = []string{
	"skewvar/internal/obs",
}

// obsclockExemptFile is the one file allowed to touch package time: it
// defines the Clock interface and the production WallClock behind it.
const obsclockExemptFile = "clock.go"

// Obsclock forbids direct package-time timestamp reads (time.Now, Since,
// Until) in internal/obs outside clock.go. Emit paths must call the
// recorder's injected Clock instead.
func Obsclock() *Analyzer {
	a := &Analyzer{
		Name:    "obsclock",
		Doc:     "direct time.Now/Since/Until in internal/obs emit paths (use the injected Clock)",
		InScope: pkgSet(obsclockScope...),
	}
	a.Run = func(p *Pkg) []Finding {
		var out []Finding
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) == obsclockExemptFile {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				// Methods (e.g. time.Time.Sub) don't read the clock; only the
				// package-level readers do.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				switch fn.Name() {
				case "Now", "Since", "Until":
					out = append(out, p.finding(a.Name, n,
						"time.%s outside clock.go: obs timestamps must come from the injected Clock so traces replay under a FakeClock", fn.Name()))
				}
				return true
			})
		}
		return out
	}
	return a
}
