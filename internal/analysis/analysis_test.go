package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadCorpus parses and type-checks one testdata/src/<name> package. The
// corpus lives under testdata so `go list ./...` (and therefore vet, build,
// and the production lint run) never sees it.
func loadCorpus(t *testing.T, name string) *Pkg {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", name, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing corpus file %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("corpus %s has no .go files", name)
	}
	p := &Pkg{
		Path: "corpus/" + name,
		Fset: fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	tp, err := conf.Check(p.Path, fset, files, p.Info)
	if len(p.TypeErrs) > 0 {
		t.Fatalf("corpus %s must type-check cleanly, got: %v", name, p.TypeErrs)
	}
	if err != nil {
		t.Fatalf("type-checking corpus %s: %v", name, err)
	}
	p.Types = tp
	p.Files = files
	return p
}

// wantRe extracts `want "<quoted>"` expectations from comment text; the
// quoted part uses Go string syntax so expectations can contain quotes.
var wantRe = regexp.MustCompile(`want ("(?:[^"\\]|\\.)*")`)

// corpusWants collects the per-line expected-message substrings declared in
// the corpus comments.
func corpusWants(t *testing.T, p *Pkg) map[int][]string {
	t.Helper()
	wants := map[int][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					s, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("bad want expectation %s: %v", m[1], err)
					}
					line := p.Fset.Position(c.Pos()).Line
					wants[line] = append(wants[line], s)
				}
			}
		}
	}
	return wants
}

// checkCorpus verifies findings against expectations both ways: every
// finding must be wanted on its line, and every want must be produced.
func checkCorpus(t *testing.T, p *Pkg, findings []Finding) {
	t.Helper()
	wants := corpusWants(t, p)
	matched := map[string]bool{} // "line/idx" of satisfied wants
	for _, f := range findings {
		ok := false
		for i, w := range wants[f.Line] {
			if strings.Contains(f.Message, w) {
				matched[fmt.Sprintf("%d/%d", f.Line, i)] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	var lines []int
	for l := range wants {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	for _, l := range lines {
		for i, w := range wants[l] {
			if !matched[fmt.Sprintf("%d/%d", l, i)] {
				t.Errorf("line %d: wanted a finding containing %q, got none", l, w)
			}
		}
	}
}

func TestMaporderCorpus(t *testing.T) {
	p := loadCorpus(t, "maporder")
	checkCorpus(t, p, Maporder().Run(p))
}

func TestDetsourceCorpus(t *testing.T) {
	p := loadCorpus(t, "detsource")
	checkCorpus(t, p, Detsource().Run(p))
}

func TestCtxflowCorpus(t *testing.T) {
	p := loadCorpus(t, "ctxflow")
	checkCorpus(t, p, Ctxflow().Run(p))
}

func TestErrwrapCorpus(t *testing.T) {
	p := loadCorpus(t, "errwrap")
	checkCorpus(t, p, Errwrap().Run(p))
}

func TestObsclockCorpus(t *testing.T) {
	p := loadCorpus(t, "obsclock")
	checkCorpus(t, p, Obsclock().Run(p))
}

func TestPoolboundCorpus(t *testing.T) {
	p := loadCorpus(t, "poolbound")
	// Bind the sanctioned-pool allowlist to the corpus package's runIndexed,
	// startAccept, startMonitor, and runClients, mirroring how Suite binds
	// DefaultPools' multi-entry lists (core.runIndexed /
	// serve.startWorkers+startAccept / fleet.startMonitor+startAccept /
	// skewload's runClients).
	a := Poolbound(map[string][]string{p.Path: {"runIndexed", "startAccept", "startMonitor", "runClients"}})
	checkCorpus(t, p, a.Run(p))
}

func TestLockscopeCorpus(t *testing.T) {
	p := loadCorpus(t, "lockscope")
	// Bind the module-internal blocking table to the corpus package's
	// journaledCall, mirroring how Suite binds DefaultBlocking (serve's
	// journal append and steal entry points).
	a := Lockscope(map[string][]string{p.Path: {"journaledCall"}})
	checkCorpus(t, p, a.Run(p))
}

func TestAckorderCorpus(t *testing.T) {
	p := loadCorpus(t, "ackorder")
	// Bind the handler table to every submission handler in the corpus and
	// the admitter list to its admit method, mirroring how Suite binds
	// DefaultAckHandlers/DefaultAdmitters.
	handlers := map[string][]string{p.Path: {
		"handleSubmit",
		"handleSubmitEarlyAck",
		"handleSubmitSkippable",
		"handleSubmitUnchecked",
		"handleSubmitDiscard",
		"handleSubmitParked",
		"handleSubmitAckAmbiguous",
		"handleSubmitIfErrAck",
		"handleSubmitRaw",
		"handleSubmitRawBad",
		"handleSubmitGuardedEarly",
	}}
	a := Ackorder(handlers, []string{"admit"})
	checkCorpus(t, p, a.Run(p))
}

func TestDeferbalCorpus(t *testing.T) {
	p := loadCorpus(t, "deferbal")
	checkCorpus(t, p, Deferbal().Run(p))
}

// TestSuppressCorpus exercises the directive machinery end to end through
// Apply: live suppressions, wildcard, stale directives, and the two
// malformed shapes (missing reason, unknown analyzer).
func TestSuppressCorpus(t *testing.T) {
	p := loadCorpus(t, "suppress")
	checkCorpus(t, p, Apply([]*Pkg{p}, []*Analyzer{Maporder()}))
}

// TestScopeGating pins the production scopes: Apply must skip analyzers on
// packages outside their surface even when the code violates the rule.
func TestScopeGating(t *testing.T) {
	p := loadCorpus(t, "detsource") // full of violations, path corpus/detsource
	if got := Apply([]*Pkg{p}, []*Analyzer{Detsource()}); len(got) != 0 {
		t.Fatalf("detsource ran outside its scope: %v", got)
	}
	for _, path := range detsourceScope {
		if !Detsource().InScope(path) {
			t.Errorf("detsource scope must include %s", path)
		}
	}
	if Detsource().InScope("skewvar/internal/report") {
		t.Error("detsource scope must not include report (formatting may read the clock)")
	}
}

// TestApplyOrdering: findings come back sorted by file, line, column —
// skewlint output and lint-fix-report JSON must be diff-stable.
func TestApplyOrdering(t *testing.T) {
	p := loadCorpus(t, "maporder")
	got := Apply([]*Pkg{p}, []*Analyzer{Maporder()})
	if len(got) < 2 {
		t.Fatalf("need at least two findings to check ordering, got %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].File != got[j].File {
			return got[i].File < got[j].File
		}
		return got[i].Line < got[j].Line
	}) {
		t.Errorf("findings not position-sorted: %v", got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "maporder", File: "a/b.go", Line: 12, Col: 3, Message: "boom"}
	if got, want := f.String(), "a/b.go:12: [maporder] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestRepoIsLintClean runs the full production suite over the repository —
// the same check `make lint` performs. A finding here means a determinism,
// cancellation, or error-taxonomy invariant regressed (or a fix landed
// without a //lint:ignore reason).
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is seconds of work; skipped with -short")
	}
	pkgs, err := Load(LoadConfig{Dir: moduleRoot(t)})
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrs {
			t.Errorf("%s: type-check: %v", p.Path, te)
		}
	}
	findings := Apply(pkgs, Suite())
	for _, f := range findings {
		t.Errorf("lint: %s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the sites above or suppress them with //lint:ignore <analyzer> <reason>")
	}
}
