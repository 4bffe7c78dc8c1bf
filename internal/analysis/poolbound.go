package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// DefaultPools are the sanctioned goroutine launch sites: the bounded,
// deterministically reduced worker pools every concurrent path in the
// repository funnels through, plus skewd's two process-lifetime launch
// points (the job worker pool and the HTTP accept loop — both bounded,
// both drained by serve.Drain) and the fleet coordinator's two (the
// heartbeat/repair monitor and its accept loop — one goroutine each,
// stopped by fleet.Drain), and skewload's client pool (bounded fan-out
// over a shared index counter, fully drained before results are read).
// Keyed by import path; values are function names within that package
// whose bodies may contain go statements.
var DefaultPools = map[string][]string{
	"skewvar/internal/core":  {"runIndexed"},
	"skewvar/internal/serve": {"startWorkers", "startAccept"},
	"skewvar/internal/fleet": {"startMonitor", "startAccept"},
	"skewvar/cmd/skewload":   {"runClients"},
}

// Poolbound flags every go statement outside the sanctioned worker pools.
// The determinism and cancellation story (bounded fan-out, indexed result
// slots, ordered reduction, full drain before return) is argued once, for
// the pools; a goroutine launched anywhere else has none of those
// guarantees and silently re-opens the scheduling-dependence hole the
// pools exist to close.
func Poolbound(allowed map[string][]string) *Analyzer {
	a := &Analyzer{
		Name: "poolbound",
		Doc:  "go statements outside the sanctioned worker pools",
	}
	a.Run = func(p *Pkg) []Finding {
		names := map[string]bool{}
		for _, n := range allowed[p.Path] {
			names[n] = true
		}
		var sanctioned []string
		for path, fns := range allowed {
			for _, fn := range fns {
				sanctioned = append(sanctioned, path+"."+fn)
			}
		}
		sort.Strings(sanctioned)
		var out []Finding
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if names[fd.Name.Name] {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						out = append(out, p.finding(a.Name, g,
							"go statement outside the sanctioned worker pools (%s); route concurrency through them to keep it auditable",
							strings.Join(sanctioned, ", ")))
					}
					return true
				})
			}
		}
		return out
	}
	return a
}
