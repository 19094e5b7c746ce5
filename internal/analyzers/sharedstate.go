package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sharedstate is the compile-time side of the fan-out's determinism
// contract. Bodies run concurrently — a fleet's shards drain their arrival
// buffers side by side behind its coordinator, a sweep (sim.ForEach) runs
// its grid points side by side, a figure runs its independent simulations
// on every core — and the byte-identical-report guarantee holds only if
// each body touches nothing but its own index's state and its arguments. The
// GOMAXPROCS-matrix equivalence tests prove that dynamically for the
// configurations they drive; sharedstate gates the source itself. A
// function opts in by carrying //flatflash:lp in its doc comment, and every
// construct that reaches shared mutable state is flagged:
//
//	package-level variable reads/writes (error sentinels may be read —
//	comparing err == ErrX is immutable by convention)
//	go statements (a fan-out body is one goroutine by contract)
//	channel send/receive/range/select (results flow back through
//	index-owned slots, which the fan-out reads in index order)
//	sync and sync/atomic calls (a lock order is a nondeterministic order)
//
// Calls into other functions are not traced; annotate the callee if it runs
// inside the fan-out. A construct that is provably confined can be kept
// under //lint:ignore sharedstate <reason>.

var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc: "in //flatflash:lp functions, flag shared mutable state: package-level " +
		"variables, go statements, channel operations, sync/atomic calls",
	Run: runSharedState,
}

const lpDirective = "//flatflash:lp"

func runSharedState(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, lpDirective) {
				continue
			}
			p.checkLPBody(fd.Body)
		}
	}
}

func (p *Pass) checkLPBody(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		p.checkLPNode(n, stack)
		stack = append(stack, n)
		return true
	})
}

func (p *Pass) checkLPNode(n ast.Node, stack []ast.Node) {
	switch e := n.(type) {
	case *ast.GoStmt:
		p.Reportf(e.Pos(), "go statement in LP body: a fan-out body is one goroutine; concurrency belongs to sim.ForEach")
	case *ast.SendStmt:
		p.Reportf(e.Pos(), "channel send in LP body: results leave a fan-out body through index-owned state, not channels")
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			p.Reportf(e.Pos(), "channel receive in LP body: a fan-out body sees only its own index's state, not channels")
		}
	case *ast.SelectStmt:
		p.Reportf(e.Pos(), "select in LP body: a fan-out body sees only its own index's state, not channels")
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				p.Reportf(e.Pos(), "range over channel in LP body: a fan-out body sees only its own index's state, not channels")
			}
		}
	case *ast.CallExpr:
		p.checkLPCall(e)
	case *ast.Ident:
		p.checkLPIdent(e, stack)
	}
}

// checkLPCall flags calls that resolve into sync or sync/atomic — package
// functions and methods alike (a *sync.Mutex Lock resolves to a *types.Func
// whose Pkg is "sync").
func (p *Pass) checkLPCall(call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync", "sync/atomic":
		p.Reportf(call.Pos(), "%s.%s in LP body: a lock or atomic order is a nondeterministic order; keep state LP-local",
			fn.Pkg().Name(), fn.Name())
	}
}

// checkLPIdent flags identifiers that resolve to package-level variables.
// Reads of error-typed variables stay legal: sentinel errors are written
// once at init and only ever compared.
func (p *Pass) checkLPIdent(id *ast.Ident, stack []ast.Node) {
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if isWriteTarget(id, stack) {
		p.Reportf(id.Pos(), "write to package-level variable %s in LP body; keep state on the body's own index or pass it in", id.Name)
		return
	}
	if types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return
	}
	p.Reportf(id.Pos(), "read of package-level variable %s in LP body; pass it in at construction instead", id.Name)
}

// isWriteTarget reports whether e is directly assigned or incremented.
func isWriteTarget(e ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == e {
				return true
			}
		}
	case *ast.IncDecStmt:
		return parent.X == e
	}
	return false
}
