package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"flatflash/internal/analyzers/cfg"
)

// detflow is the suite's map-order analyzer, a determinism taint analysis:
// it tracks, through the CFG, values whose ORDER (or rendering) is
// nondeterministic — products of map iteration, pointer formatting, or
// unsafe — and reports when they flow into an emit-shaped sink. That covers
// a map walk printing straight from an emitter and its laundered versions:
// keys collected from a map walk and emitted unsorted three statements
// later, a tainted slice returned to the caller that renders it, a pointer
// formatted into a counter name. Same-seed byte-identical reports (every
// crashsweep golden, the fleet's in-line≡fanned-out gate) are only as
// strong as the absence of such flows.
//
// Taint sources (intraprocedural):
//
//   - the key/value variables of a `range` over a map, and the value
//     variable of a `range` over an already-tainted slice
//   - maps.Keys / maps.Values results
//   - fmt.Sprintf/Sprint with a %p verb or a pointer-typed argument
//     (also a direct diagnostic: pointer identity is never deterministic)
//   - uintptr conversions of pointers, and any unsafe.* use
//
// Propagation: assignments (strong update on plain variables), struct-field
// objects, append, copy, slice/index expressions over tainted bases, and
// composite literals containing tainted elements. Integer compound
// assignment (x += k, x |= k) does NOT propagate order taint — integer
// accumulation commutes. Sorting launders: sort.*/slices.Sort* clear their
// argument's taint, which is exactly the collect-then-sort idiom the
// codebase uses (fleet.sortHeat).
//
// Sinks, inside emit-shaped functions only (name matches emitShaped or doc
// carries //flatflash:deterministic): arguments to fmt print calls,
// arguments to Write*-family methods, and tainted return values. One sink
// applies everywhere: a tainted stats.Counters key (Add/Handle/Get) — a
// counter named in nondeterministic order perturbs first-use report order
// no matter who calls it.

var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: "taint analysis: map-iteration-ordered, pointer-derived, or unsafe " +
		"values must not reach report/export sinks or stats.Counters keys",
	Run: runDetFlow,
}

// emitShaped matches function names whose output plausibly reaches a
// report, export, or trace; detflow's emit sinks apply only inside them
// (and inside //flatflash:deterministic functions). Tight on purpose:
// aggregation helpers may hand unsorted values to an emitter that sorts.
var emitShaped = regexp.MustCompile(
	`(?i)(report|export|emit|dump|render|snapshot|marshal|drain|writeto|string)`)

const deterministicDirective = "//flatflash:deterministic"

// dfFact is the taint set: object -> why it is tainted (the short cause
// used in the diagnostic).
type dfFact map[types.Object]string

func dfMerge(a, b dfFact) dfFact {
	out := make(dfFact, len(a)+len(b))
	for o, t := range a {
		out[o] = t
	}
	for o, t := range b {
		if _, ok := out[o]; !ok {
			out[o] = t
		}
	}
	return out
}

func dfEqual(a, b dfFact) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if _, ok := b[o]; !ok {
			return false
		}
	}
	return true
}

// dfFunc is detflow's run over one function body.
type dfFunc struct {
	*Pass
	body  *ast.BlockStmt
	emits bool // the emit sinks apply
}

func runDetFlow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d := &dfFunc{
				Pass:  p,
				body:  fd.Body,
				emits: emitShaped.MatchString(fd.Name.Name) || hasDirective(fd.Doc, deterministicDirective),
			}
			d.check()
		}
	}
}

func (d *dfFunc) check() {
	g := cfg.New(d.body)
	facts := cfg.Forward(g, dfFact{},
		func(f dfFact, n ast.Node) dfFact { return d.dfTransfer(f, n, false) },
		dfMerge, dfEqual)
	for _, blk := range g.Blocks {
		f, reachable := facts[blk]
		if !reachable {
			continue
		}
		for _, n := range blk.Nodes {
			f = d.dfTransfer(f, n, true)
		}
	}
}

// dfTransfer folds one CFG node into the taint fact. With report set it
// also fires sink diagnostics (the reporting walk re-runs transfers over
// the converged entry facts).
func (d *dfFunc) dfTransfer(f dfFact, n ast.Node, report bool) dfFact {
	// Copy-on-write wrapper so the fixpoint can compare facts by identity
	// of content.
	out := f
	mutated := false
	set := func(o types.Object, t string) {
		if o == nil {
			return
		}
		if cur, ok := out[o]; ok && cur == t {
			return
		}
		if !mutated {
			mutated = true
			out = dfMerge(out, nil)
		}
		out[o] = t
	}
	clear := func(o types.Object) {
		if o == nil {
			return
		}
		if _, ok := out[o]; !ok {
			return
		}
		if !mutated {
			mutated = true
			out = dfMerge(out, nil)
		}
		delete(out, o)
	}

	switch v := n.(type) {
	case *ast.AssignStmt:
		d.dfAssign(out, v, set, clear)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if t, bad := d.dfExpr(out, vs.Values[i]); bad {
							set(d.Info.Defs[name], t)
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Header node only; the body lives in other blocks.
		if xt := d.Info.TypeOf(v.X); xt != nil {
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				t := "map iteration order"
				set(rangeVarObj(d.Info, v.Key), t)
				set(rangeVarObj(d.Info, v.Value), t)
			} else if t, bad := d.dfExpr(out, v.X); bad {
				set(rangeVarObj(d.Info, v.Value), t)
			}
		}
	case *ast.ReturnStmt:
		if report && d.emits {
			for _, r := range v.Results {
				if t, bad := d.dfExpr(out, r); bad {
					d.Reportf(r.Pos(), "value derived from %s is returned from an emit-shaped function; sort (or restructure) before returning", t)
				}
			}
		}
	}

	// Calls anywhere in the node: sort launders, copy propagates, sinks
	// fire. Skips FuncLit bodies (their own CFG) and RangeStmt bodies (own
	// blocks; only X belongs to this node).
	walkCalls(n, func(call *ast.CallExpr) {
		d.dfCall(out, call, set, clear, report)
	})
	return out
}

func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// walkCalls visits every CallExpr in n, skipping FuncLit bodies and
// RangeStmt bodies.
func walkCalls(n ast.Node, fn func(*ast.CallExpr)) {
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch v := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.RangeStmt:
				walk(v.X)
				return false
			case *ast.CallExpr:
				fn(v)
			}
			return true
		})
	}
	if n != nil {
		walk(n)
	}
}

func (p *Pass) dfAssign(f dfFact, as *ast.AssignStmt, set func(types.Object, string), clear func(types.Object)) {
	// Multi-assign x, y = a, b pairs positionally; x, y = f() taints both
	// sides if the call taints (calls do not, intraprocedurally, except the
	// special cases in dfExpr).
	for i, lhs := range as.Lhs {
		var t string
		var bad bool
		if len(as.Rhs) == len(as.Lhs) {
			t, bad = p.dfExpr(f, as.Rhs[i])
		} else if len(as.Rhs) == 1 {
			t, bad = p.dfExpr(f, as.Rhs[0])
		}
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment. Integer accumulation commutes, so order
			// taint does not transfer; everything else keeps or gains it.
			if p.isIntegerExpr(lhs) {
				continue
			}
			if lt, lbad := p.dfExpr(f, lhs); lbad {
				t, bad = lt, true
			}
			if bad {
				set(p.dfLhsObj(lhs), t)
			}
			continue
		}
		obj := p.dfLhsObj(lhs)
		if bad {
			set(obj, t)
		} else if _, isIdent := lhs.(*ast.Ident); isIdent {
			// Strong update only on plain variables; a clean store to
			// x.field or x[i] does not prove the whole object is clean.
			clear(obj)
		}
	}
}

// dfLhsObj resolves the object an assignment target writes: the variable
// for identifiers, the field object for selector stores, the base variable
// for index/star stores.
func (p *Pass) dfLhsObj(lhs ast.Expr) types.Object {
	switch v := lhs.(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return nil
		}
		if o := p.Info.Defs[v]; o != nil {
			return o
		}
		return p.Info.Uses[v]
	case *ast.SelectorExpr:
		return p.Info.Uses[v.Sel]
	case *ast.IndexExpr:
		return p.dfLhsObj(v.X)
	case *ast.StarExpr:
		return p.dfLhsObj(v.X)
	case *ast.ParenExpr:
		return p.dfLhsObj(v.X)
	}
	return nil
}

// dfExpr reports whether e evaluates to a tainted value under fact f, and
// its taint.
func (p *Pass) dfExpr(f dfFact, e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if o := p.Info.Uses[v]; o != nil {
			if t, ok := f[o]; ok {
				return t, true
			}
		}
	case *ast.SelectorExpr:
		if o := p.Info.Uses[v.Sel]; o != nil {
			if t, ok := f[o]; ok {
				return t, true
			}
		}
		return p.dfExpr(f, v.X)
	case *ast.IndexExpr:
		return p.dfExpr(f, v.X)
	case *ast.SliceExpr:
		return p.dfExpr(f, v.X)
	case *ast.StarExpr:
		return p.dfExpr(f, v.X)
	case *ast.ParenExpr:
		return p.dfExpr(f, v.X)
	case *ast.UnaryExpr:
		return p.dfExpr(f, v.X)
	case *ast.BinaryExpr:
		if t, bad := p.dfExpr(f, v.X); bad {
			return t, true
		}
		return p.dfExpr(f, v.Y)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t, bad := p.dfExpr(f, el); bad {
				return t, true
			}
		}
	case *ast.KeyValueExpr:
		return p.dfExpr(f, v.Value)
	case *ast.TypeAssertExpr:
		return p.dfExpr(f, v.X)
	case *ast.CallExpr:
		return p.dfCallValue(f, v)
	}
	return "", false
}

// dfCallValue decides whether a call EXPRESSION produces a tainted value.
func (p *Pass) dfCallValue(f dfFact, call *ast.CallExpr) (string, bool) {
	// append(s, xs...) is tainted if the slice or any appended value is.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			for _, a := range call.Args {
				if t, bad := p.dfExpr(f, a); bad {
					return t, true
				}
			}
			return "", false
		}
	}
	// Conversions: uintptr(ptr) introduces pointer-identity taint; any
	// other conversion just carries its operand's taint through.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if at := p.Info.TypeOf(call.Args[0]); at != nil && isPointerish(at) {
				return "pointer identity (uintptr conversion)", true
			}
		}
		return p.dfExpr(f, call.Args[0])
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// maps.Keys / maps.Values: iteration-ordered by definition.
		if fn, ok := pkgFunc(p.Info, sel.Sel, "maps"); ok {
			if fn.Name() == "Keys" || fn.Name() == "Values" {
				return "map iteration order (maps." + fn.Name() + ")", true
			}
		}
		// unsafe.* values.
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "unsafe" {
				return "unsafe", true
			}
		}
		// fmt.Sprint* with %p or a pointer argument renders an address.
		if fn, ok := pkgFunc(p.Info, sel.Sel, "fmt"); ok && strings.HasPrefix(fn.Name(), "Sprint") {
			if p.fmtRendersPointer(call) {
				return "pointer formatting", true
			}
			for _, a := range call.Args {
				if t, bad := p.dfExpr(f, a); bad {
					return t, true
				}
			}
		}
	}
	return "", false
}

// dfCall handles call STATEMENT effects: laundering, propagation, sinks,
// and the direct %p diagnostic.
func (d *dfFunc) dfCall(f dfFact, call *ast.CallExpr, set func(types.Object, string), clear func(types.Object), report bool) {
	// Direct diagnostic: %p anywhere (emit-shaped or not) — a formatted
	// pointer can never be deterministic across runs.
	if report && d.fmtRendersPointer(call) {
		d.Reportf(call.Pos(), "formatting a pointer (%%p / pointer argument) is nondeterministic across runs; format a stable id instead")
	}

	// Sorting launders the first argument.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) >= 1 {
		if fn, ok := pkgFunc(d.Info, sel.Sel, "sort"); ok && fn.Name() != "Search" {
			clear(d.dfLhsObj(call.Args[0]))
		}
		if fn, ok := pkgFunc(d.Info, sel.Sel, "slices"); ok && strings.HasPrefix(fn.Name(), "Sort") {
			clear(d.dfLhsObj(call.Args[0]))
		}
	}

	// copy(dst, src) propagates.
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 2 {
		if b, ok := d.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
			if t, bad := d.dfExpr(f, call.Args[1]); bad {
				set(d.dfLhsObj(call.Args[0]), t)
			}
		}
	}

	if !report {
		return
	}

	// stats.Counters key sink: applies everywhere.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) >= 1 {
		if isCountersRecv(d.Info.TypeOf(sel.X)) {
			switch sel.Sel.Name {
			case "Add", "Handle", "Get":
				if t, bad := d.dfExpr(f, call.Args[0]); bad {
					d.Reportf(call.Args[0].Pos(), "stats.Counters key derived from %s: counter first-use order becomes nondeterministic", t)
				}
			}
		}
	}

	if !d.emits {
		return
	}

	// Emit sinks: fmt printers and Write*-family methods.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pkgFunc(d.Info, sel.Sel, "fmt"); ok &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			for _, a := range call.Args {
				if t, bad := d.dfExpr(f, a); bad {
					d.Reportf(a.Pos(), "value derived from %s reaches %s in an emit-shaped function; sort before emitting", t, "fmt."+fn.Name())
				}
			}
			return
		}
		if strings.HasPrefix(sel.Sel.Name, "Write") || sel.Sel.Name == "Printf" || sel.Sel.Name == "Print" {
			if _, isPkg := d.Info.Uses[idOf(sel.X)].(*types.PkgName); !isPkg {
				for _, a := range call.Args {
					if t, bad := d.dfExpr(f, a); bad {
						d.Reportf(a.Pos(), "value derived from %s reaches %s in an emit-shaped function; sort before emitting", t, sel.Sel.Name)
					}
				}
			}
		}
	}
}

func idOf(e ast.Expr) *ast.Ident {
	if id, ok := e.(*ast.Ident); ok {
		return id
	}
	return &ast.Ident{Name: ""}
}

// fmtRendersPointer reports whether call is a fmt call whose constant
// format string contains %p.
func (p *Pass) fmtRendersPointer(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkgFunc(p.Info, sel.Sel, "fmt")
	if !ok || !strings.HasSuffix(fn.Name(), "f") {
		return false
	}
	for _, a := range call.Args {
		tv, ok := p.Info.Types[a]
		if !ok || tv.Value == nil {
			continue
		}
		s := tv.Value.String()
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 &&
			strings.Contains(s, "%p") {
			return true
		}
	}
	return false
}

func isPointerish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isCountersRecv reports whether t is (a pointer to) stats.Counters.
func isCountersRecv(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Counters" {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "internal/stats" || hasPathSuffix(pkg.Path(), "internal/stats")
}

func (p *Pass) isIntegerExpr(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
