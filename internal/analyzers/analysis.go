// Package analyzers implements flatflash-lint: static-analysis passes that
// enforce the simulator's determinism, virtual-time, and hot-path invariants
// at compile time instead of test time.
//
// The invariants themselves are dynamic promises made by earlier layers —
// byte-identical same-seed reports (crashsweep, mtsim), a single virtual
// nanosecond clock (sim.Clock), and the zero-allocation access fast path —
// and each has a dynamic guard (equivalence tests, AllocsPerRun budgets).
// Those guards catch violations after the fact, one call site at a time.
// The analyzers here catch the whole class across the tree before the code
// ever runs.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic, an analysistest-style fixture runner in
// analyzertest) but is self-contained on the standard library, because the
// build environment is hermetic: packages are loaded by internal/analyzers/load
// via `go list -json -deps` plus go/types.
//
// The source annotations that interact with the suite:
//
//	//flatflash:hotpath    on a function's doc comment opts it into the
//	                       hotalloc allocation gate (AST checks plus the
//	                       interprocedural closure rule: hot functions may
//	                       only call annotated or coldpath functions).
//	//flatflash:coldpath   on a function's doc comment marks it an
//	                       acknowledged slow-path callee: hotpath functions
//	                       may call it without the closure diagnostic, and
//	                       its own body is not allocation-gated.
//	//flatflash:lp         on a function's doc comment opts it into the
//	                       sharedstate gate for bodies the batched
//	                       fan-out (sim.ForEach) runs concurrently.
//	//flatflash:deterministic
//	                       on a function's doc comment opts it into
//	                       detflow's emit sinks even when its name does not
//	                       look emit-shaped.
//	//lint:ignore <analyzers> <reason>
//	                       on (or immediately above) a line suppresses the
//	                       named analyzers' diagnostics for that line. The
//	                       reason is mandatory; a malformed directive is
//	                       itself a diagnostic.
//
// Flow-sensitive analyzers (attribwindow, detflow, the hotalloc closure
// rule) build per-function control-flow graphs via internal/analyzers/cfg
// and iterate forward dataflow to a fixpoint; see that package's doc for
// the graph shape contract.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flatflash/internal/sim"
)

// An Analyzer is one named static check.
type Analyzer struct {
	Name string
	Doc  string
	// Allowed lists package-path patterns exempt from this analyzer. A
	// pattern matches a package whose import path equals it or ends with
	// "/"+pattern (so "internal/sim" matches "flatflash/internal/sim").
	// Allowlisting is for packages whose job is the thing the analyzer
	// forbids (the sim RNG owns randomness; the lint CLI may time itself).
	Allowed []string
	Run     func(*Pass)
}

func (a *Analyzer) allows(pkgPath string) bool {
	for _, pat := range a.Allowed {
		if pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat) {
			return true
		}
	}
	return false
}

// A Target is one type-checked package an analyzer runs over.
type Target struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // parsed with comments
	Pkg   *types.Package
	Info  *types.Info
}

// A Diagnostic is one reported violation, carrying a resolved position so
// it can be sorted and printed without the FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's run over one target.
type Pass struct {
	*Target
	Analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full flatflash-lint suite.
func All() []*Analyzer {
	return []*Analyzer{Walltime, SeededRand, HotAlloc, SharedState, AttribWindow, DetFlow}
}

// Run applies the analyzers to every target, drops diagnostics suppressed
// by //lint:ignore directives or package allowlists, and returns the rest
// sorted by position. Malformed directives are reported under the pseudo-
// analyzer name "lint". Targets are analyzed concurrently on sim.ForEach's
// workers; the fan-in sorts and dedups, so the result does not depend on
// the worker count.
func Run(targets []*Target, analyzers []*Analyzer) []Diagnostic {
	perTarget := make([][]Diagnostic, len(targets))
	// Analyzers report through diagnostics, never an error, so ForEach
	// returns nil.
	_ = sim.ForEach(len(targets), sim.Workers(false), func(i int) error {
		tgt := targets[i]
		ig, diags := collectIgnores(tgt)
		for _, a := range analyzers {
			if a.allows(tgt.Path) {
				continue
			}
			pass := &Pass{Target: tgt, Analyzer: a}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ig.suppressed(a.Name, d.Pos) {
					diags = append(diags, d)
				}
			}
		}
		perTarget[i] = diags
		return nil
	})
	var out []Diagnostic
	for _, diags := range perTarget {
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Drop exact duplicates (an expression reachable twice in a walk must
	// not be reported twice).
	dedup := out[:0]
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup
}

// inspectFiles walks every file, keeping the ancestor stack. fn's stack
// argument excludes n itself; returning false skips n's children.
func inspectFiles(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// hasDirective reports whether a doc comment contains the given
// //flatflash:<marker> directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// hasPathSuffix reports whether the import path ends with the
// slash-separated suffix, as "flatflash/internal/telemetry" ends with
// "internal/telemetry".
func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	if obj, found := info.Uses[id]; found {
		_, isNil := obj.(*types.Nil)
		return isNil
	}
	return true
}

// pkgFunc returns the *types.Func for the object an identifier or selector
// resolves to, if it is a package-level function of the named import path.
func pkgFunc(info *types.Info, id *ast.Ident, pkgPath string) (*types.Func, bool) {
	obj, ok := info.Uses[id]
	if !ok {
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil, false
	}
	return fn, true
}
