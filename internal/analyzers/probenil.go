package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// probenil enforces the nil-safe instrumentation pattern: every call on a
// *telemetry.Sink — the one seam every layer reports through — must be
// dominated by a nil check on that exact expression, so a disabled sink
// costs one pointer compare per site. A nil *Sink is the disabled
// configuration and its Observe dereferences the receiver, so an unguarded
// call is a crash waiting for the first uninstrumented run. Two guard
// shapes are accepted:
//
//	if s.obs != nil { s.obs.Observe(...) }     // possibly && more conds
//	if s.obs == nil { return }                 // early exit, then call
//
// Calls on the concrete consumers (*telemetry.Tracer, *telemetry.Attribution
// and friends, whose nil-safe methods callers use directly) are not flagged.

var ProbeNil = &Analyzer{
	Name: "probenil",
	Doc: "*telemetry.Sink calls must be nil-guarded " +
		"(if s != nil { s.Observe(...) }) so a disabled sink costs one compare",
	// The defining package forwards through sinks it has already validated.
	Allowed: []string{"internal/telemetry"},
	Run:     runProbeNil,
}

func runProbeNil(p *Pass) {
	inspectFiles(p.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSinkPointer(p.Info.TypeOf(sel.X)) {
			return true
		}
		recv := types.ExprString(sel.X)
		if p.guardedByIf(stack, n, recv) || p.guardedByEarlyExit(stack, n, recv) {
			return true
		}
		p.Reportf(call.Pos(), "telemetry.Sink call without nil guard; wrap as `if %s != nil { %s.%s(...) }` (a disabled sink must cost one pointer compare)", recv, recv, sel.Sel.Name)
		return true
	})
}

// isSinkPointer reports whether t is *Sink from a package whose import path
// is (or ends with) internal/telemetry.
func isSinkPointer(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Sink" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/telemetry" || hasPathSuffix(path, "internal/telemetry")
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// guardedByIf walks the enclosing ifs: the call is guarded when it sits in
// the then-branch of a condition that implies recv != nil (reachable
// through && conjuncts), or in the else-branch of one that implies
// recv == nil (through || disjuncts).
func (p *Pass) guardedByIf(stack []ast.Node, at ast.Node, recv string) bool {
	child := at
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			child = stack[i]
			continue
		}
		if ifs.Body == child && p.condImpliesNonNil(ifs.Cond, recv) {
			return true
		}
		if ifs.Else == child && p.condImpliesNil(ifs.Cond, recv) {
			return true
		}
		child = stack[i]
	}
	return false
}

// condImpliesNonNil: cond guarantees recv != nil when it holds.
func (p *Pass) condImpliesNonNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return p.condImpliesNonNil(e.X, recv) || p.condImpliesNonNil(e.Y, recv)
		case token.NEQ:
			return p.isNilCheckOf(e, recv)
		}
	}
	return false
}

// condImpliesNil: cond's falsity guarantees recv != nil (cond is recv ==
// nil or a ||-disjunction containing it would NOT suffice — for a
// disjunction, falsity of the whole implies falsity of each disjunct, so
// recv == nil anywhere under || works).
func (p *Pass) condImpliesNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			return p.condImpliesNil(e.X, recv) || p.condImpliesNil(e.Y, recv)
		case token.EQL:
			return p.isNilCheckOf(e, recv)
		}
	}
	return false
}

// isNilCheckOf reports whether e compares recv against nil.
func (p *Pass) isNilCheckOf(e *ast.BinaryExpr, recv string) bool {
	if isNilIdent(p.Info, e.Y) {
		return types.ExprString(e.X) == recv
	}
	if isNilIdent(p.Info, e.X) {
		return types.ExprString(e.Y) == recv
	}
	return false
}

// guardedByEarlyExit scans earlier statements of every enclosing block for
// `if recv == nil { return / continue / break / panic }`.
func (p *Pass) guardedByEarlyExit(stack []ast.Node, at ast.Node, recv string) bool {
	child := at
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			child = stack[i]
			continue
		}
		for _, s := range block.List {
			if s == child {
				break
			}
			ifs, ok := s.(*ast.IfStmt)
			if !ok || ifs.Else != nil || !p.condImpliesNil(ifs.Cond, recv) {
				continue
			}
			if blockTerminates(ifs.Body) {
				return true
			}
		}
		child = stack[i]
	}
	return false
}

// blockTerminates reports whether the block's last statement leaves the
// enclosing flow (return, continue, break, goto, or panic).
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
