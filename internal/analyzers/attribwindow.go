package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"flatflash/internal/analyzers/cfg"
)

// attribwindow is the flow-sensitive guard for the latency-attribution
// engine's window protocol (telemetry.Attribution, PR 6). The runtime
// property — the signed CompSoftware residual makes component sums equal the
// end-to-end total exactly — holds only when every window is closed exactly
// once on every path: a Begin leaked past a return drops the whole window
// from the budget, a double End folds one measurement twice, and an
// unbalanced Suspend inverts the pipelined-overlap accounting added with the
// FMMU-style paths in PR 8. AllocsPerRun-style dynamic checks only see the
// paths the tests drive; this analyzer walks every path of the CFG.
//
// Rules, per attribution receiver expression (e.g. `s.att`):
//
//   - Begin must not find a window already open (no nesting on one receiver).
//   - End must find the window open on EVERY path reaching it; an End that
//     is only sometimes preceded by Begin (branch-only Begin, early return
//     re-entry) is a diagnostic.
//   - Every path from Begin to function exit must pass End or Abandon;
//     leaking an open window through a return or panic is a diagnostic.
//   - Abandon is always legal, even with no window open — core.Crash
//     discards any in-flight window without knowing whether one exists.
//   - Charge must be dominated by Begin — but only inside functions that
//     Begin a window on that receiver. Substrate packages (pcie, flash,
//     plb, ssdcache, ftl) Charge into windows their callers opened; those
//     call sites are the engine's normal background routing and are out of
//     scope by construction.
//   - Suspend must pair with Resume on every path, and Resume must not
//     outrun Suspend. Deferred End/Abandon/Resume count at the point the
//     defer statement executes: a path that returns before reaching the
//     defer really does leak.
//
// Functions are gated in per receiver: window rules run only where a Begin
// on that receiver appears; Suspend pairing runs only where a Suspend
// appears. Everything else costs nothing.

var AttribWindow = &Analyzer{
	Name: "attribwindow",
	Doc: "flow-sensitive pairing of Attribution Begin/End/Abandon windows, " +
		"Charge domination, and Suspend/Resume balance on all paths",
	Run: runAttribWindow,
}

// Window states. Lattice: merging distinct states yields winTop.
const (
	winClosed = iota
	winOpen
	winTop
)

// Suspend depth is 0..awMaxDepth; merging distinct depths yields awDepthTop.
const (
	awMaxDepth = 7
	awDepthTop = awMaxDepth + 1
)

type awRecvState struct {
	win   uint8
	depth uint8
}

// awFact is the dataflow fact: one state per tracked receiver, indexed in
// the function's sorted receiver order.
type awFact []awRecvState

func awMerge(a, b awFact) awFact {
	out := make(awFact, len(a))
	for i := range a {
		s := a[i]
		if b[i].win != s.win {
			s.win = winTop
		}
		if b[i].depth != s.depth {
			s.depth = awDepthTop
		}
		out[i] = s
	}
	return out
}

func awEqual(a, b awFact) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runAttribWindow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkAttribFunc(fd.Body)
			// Function literals are separate functions with their own CFGs
			// and their own window discipline.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					p.checkAttribFunc(fl.Body)
				}
				return true
			})
		}
	}
}

// attribCall describes one attribution-protocol call found inside a node.
type attribCall struct {
	recv     string // types.ExprString of the receiver expression
	method   string
	pos      token.Pos
	deferred bool
}

var attribMethods = map[string]bool{
	"Begin": true, "End": true, "Abandon": true,
	"Charge": true, "Suspend": true, "Resume": true,
}

// isAttribReceiver reports whether t (the receiver expression's type) is an
// attribution sink: a named type from internal/telemetry (Attribution, the
// Sink that forwards Suspend/Resume to it), or any interface declaring
// niladic Suspend and Resume (packages that only pause accounting may hold
// the engine through such an interface).
func isAttribReceiver(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			path := pkg.Path()
			if path == "internal/telemetry" || hasPathSuffix(path, "internal/telemetry") {
				return true
			}
		}
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	var hasSuspend, hasResume bool
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 0 {
			continue
		}
		switch m.Name() {
		case "Suspend":
			hasSuspend = true
		case "Resume":
			hasResume = true
		}
	}
	return hasSuspend && hasResume
}

// attribCallsIn extracts the attribution calls inside one CFG node, in
// pre-order (evaluation order for the flat expressions the protocol is used
// in). walkCalls skips FuncLit bodies, which are separate functions with
// their own CFGs, and RangeStmt bodies, which the CFG places in their own
// blocks.
func (p *Pass) attribCallsIn(n ast.Node) []attribCall {
	var out []attribCall
	deferred := false
	if ds, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = ds.Call
	}
	walkCalls(n, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !attribMethods[sel.Sel.Name] || !isAttribReceiver(p.Info.TypeOf(sel.X)) {
			return
		}
		out = append(out, attribCall{
			recv:     types.ExprString(sel.X),
			method:   sel.Sel.Name,
			pos:      call.Pos(),
			deferred: deferred,
		})
	})
	return out
}

func (p *Pass) checkAttribFunc(body *ast.BlockStmt) {
	g := cfg.New(body)

	// First sweep: which receivers does this function Begin or Suspend?
	// Receivers are tracked (and rules applied) only for those.
	hasBegin := map[string]bool{}
	hasSuspend := map[string]bool{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for _, c := range p.attribCallsIn(n) {
				switch c.method {
				case "Begin":
					hasBegin[c.recv] = true
				case "Suspend":
					hasSuspend[c.recv] = true
				}
			}
		}
	}
	if len(hasBegin) == 0 && len(hasSuspend) == 0 {
		return
	}
	var recvs []string
	seen := map[string]bool{}
	for r := range hasBegin {
		if !seen[r] {
			seen[r] = true
			recvs = append(recvs, r)
		}
	}
	for r := range hasSuspend {
		if !seen[r] {
			seen[r] = true
			recvs = append(recvs, r)
		}
	}
	sort.Strings(recvs)
	idx := map[string]int{}
	for i, r := range recvs {
		idx[r] = i
	}

	// transfer must be pure: copy-on-write the fact.
	apply := func(f awFact, n ast.Node, report bool) awFact {
		calls := p.attribCallsIn(n)
		if len(calls) == 0 {
			return f
		}
		out := make(awFact, len(f))
		copy(out, f)
		for _, c := range calls {
			i, tracked := idx[c.recv]
			if !tracked {
				continue
			}
			// Deferred End/Abandon/Resume count at the point the defer
			// statement executes (paths returning earlier never register
			// them, which is exactly right). A deferred Begin/Suspend/Charge
			// has no modelable window semantics; skip it.
			if c.deferred && c.method != "End" && c.method != "Abandon" && c.method != "Resume" {
				continue
			}
			s := out[i]
			switch c.method {
			case "Begin":
				if report && hasBegin[c.recv] {
					switch s.win {
					case winOpen:
						p.Reportf(c.pos, "%s.Begin while the previous window is still open; End or Abandon it first", c.recv)
					case winTop:
						p.Reportf(c.pos, "%s.Begin reached with a window open on only some paths; close it on every path first", c.recv)
					}
				}
				s.win = winOpen
			case "End":
				if report && hasBegin[c.recv] {
					switch s.win {
					case winClosed:
						p.Reportf(c.pos, "%s.End without an open window on this path (double End, or End without Begin)", c.recv)
					case winTop:
						p.Reportf(c.pos, "%s.End reached with the window open on only some paths (branch-only Begin or early re-entry)", c.recv)
					}
				}
				s.win = winClosed
			case "Abandon":
				// Always legal: discards a window if one is open.
				s.win = winClosed
			case "Charge":
				if report && hasBegin[c.recv] {
					switch s.win {
					case winClosed:
						p.Reportf(c.pos, "%s.Charge not dominated by Begin: no window is open on this path", c.recv)
					case winTop:
						p.Reportf(c.pos, "%s.Charge reached with a window open on only some paths", c.recv)
					}
				}
			case "Suspend":
				// After reporting a conflict the state recovers (to a fresh
				// single suspend) so one bug does not cascade into exit
				// diagnostics.
				if s.depth == awDepthTop {
					if report && hasSuspend[c.recv] {
						p.Reportf(c.pos, "%s.Suspend reached with unbalanced suspend depth across paths", c.recv)
					}
					s.depth = 1
				} else if s.depth < awMaxDepth {
					s.depth++
				}
			case "Resume":
				if s.depth == awDepthTop {
					if report && hasSuspend[c.recv] {
						p.Reportf(c.pos, "%s.Resume reached with unbalanced suspend depth across paths", c.recv)
					}
					s.depth = 0
				} else if s.depth == 0 {
					if report && hasSuspend[c.recv] {
						p.Reportf(c.pos, "%s.Resume without a matching Suspend on this path", c.recv)
					}
				} else {
					s.depth--
				}
			}
			out[i] = s
		}
		return out
	}

	entry := make(awFact, len(recvs))
	facts := cfg.Forward(g, entry,
		func(f awFact, n ast.Node) awFact { return apply(f, n, false) },
		awMerge, awEqual)

	// Reporting walk: re-apply transfers per reachable block with reporting
	// on, and check exit-edge facts for leaked windows / unresumed suspends.
	for _, blk := range g.Blocks {
		f, reachable := facts[blk]
		if !reachable || blk == g.Exit {
			continue
		}
		for _, n := range blk.Nodes {
			f = apply(f, n, true)
		}
		exits := false
		for _, s := range blk.Succs {
			if s == g.Exit {
				exits = true
			}
		}
		if !exits {
			continue
		}
		p.reportExitLeaks(blk, f, recvs, hasBegin, hasSuspend, body)
	}
}

// reportExitLeaks flags windows still open (and suspends still unresumed)
// on an edge into the synthetic exit block.
func (p *Pass) reportExitLeaks(blk *cfg.Block, f awFact, recvs []string, hasBegin, hasSuspend map[string]bool, body *ast.BlockStmt) {
	// The node carrying control into Exit: the block's last node if it is a
	// return or panic; otherwise control fell off the end of the body.
	var term ast.Node
	if len(blk.Nodes) > 0 {
		last := blk.Nodes[len(blk.Nodes)-1]
		switch v := last.(type) {
		case *ast.ReturnStmt:
			term = v
		case *ast.ExprStmt: // panic(...)
			term = v
		}
	}
	pos := body.Rbrace
	if term != nil {
		pos = term.Pos()
	}
	for i, r := range recvs {
		if hasBegin[r] {
			switch f[i].win {
			case winOpen:
				if _, ok := term.(*ast.ReturnStmt); ok {
					p.Reportf(pos, "window opened by %s.Begin is still open at this return; End or Abandon it on every path", r)
				} else {
					p.Reportf(pos, "window opened by %s.Begin is still open when the function exits here; End or Abandon it on every path", r)
				}
			case winTop:
				p.Reportf(pos, "window on %s is open on only some paths reaching this exit; close it on every path", r)
			}
		}
		if hasSuspend[r] {
			switch f[i].depth {
			case 0:
			case awDepthTop:
				p.Reportf(pos, "suspend depth on %s differs across paths reaching this exit; pair every Suspend with a Resume", r)
			default:
				p.Reportf(pos, "%s.Suspend is not Resumed on this path", r)
			}
		}
	}
}
