package lint

import (
	"go/ast"
	"go/types"
)

// ObsGuard checks span hygiene: a span obtained from a Start() call
// (any method returning a type named Span) must reach an End call on
// every return path of the enclosing function — a span that escapes a
// return path silently under-counts its histogram. A deferred End
// covers all paths; a span passed onward (stored, returned, handed to
// another function) is assumed managed there.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "spans must End on all return paths",
	Run:  runObsGuard,
}

func runObsGuard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Each function literal is its own control-flow universe:
			// spans started inside one are checked against its CFG,
			// not the enclosing declaration's.
			forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
				checkSpans(pass, body)
			})
		}
	}
}

// checkSpans checks one function body (declaration or
// literal; nested literals are skipped — they get their own call).
func checkSpans(pass *Pass, body *ast.BlockStmt) {
	var starts []*ast.AssignStmt
	inspectShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Start" {
			return
		}
		if named, ok := deref(pass.TypeOf(call)); !ok || named != "Span" {
			return
		}
		starts = append(starts, as)
	})
	if len(starts) == 0 {
		return
	}
	var tracks []spanTrack
	for _, as := range starts {
		if tr, ok := classifySpan(pass, body, as); ok {
			tracks = append(tracks, tr)
		}
	}
	if len(tracks) == 0 {
		return
	}
	checkSpanFlow(pass, body, tracks)
}

// deref names the (possibly pointer-wrapped) named type of t.
func deref(t interface{ String() string }) (string, bool) {
	if t == nil {
		return "", false
	}
	s := t.String()
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:], true
		}
	}
	return s, s != ""
}

// spanTrack is one live span variable under flow analysis.
type spanTrack struct {
	start  *ast.AssignStmt
	obj    types.Object
	name   string
	enders []*ast.CallExpr
}

// classifySpan inspects every use of the span variable assigned in
// start. A use that is neither the Start assignment, a reassignment,
// nor the receiver of an ender means the span escapes our view
// (stored, returned, handed onward, or captured by a closure) —
// assume managed there and drop the track. A deferred ender covers
// all paths, so those tracks are dropped too. The survivors go to the
// CFG dataflow in checkSpanFlow.
func classifySpan(pass *Pass, body *ast.BlockStmt, start *ast.AssignStmt) (spanTrack, bool) {
	id := start.Lhs[0].(*ast.Ident)
	obj := pass.ObjectOf(id)
	if obj == nil {
		return spanTrack{}, false
	}
	deferred := false
	escaped := false
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	var enderCalls []*ast.CallExpr
	inspectShallow(body, func(n ast.Node) {
		use, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(use) != obj {
			return
		}
		parent := parents[use]
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.Sel.Name == "End" {
				if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
					enderCalls = append(enderCalls, call)
					if isDeferred(parents, call) {
						deferred = true
					}
					return
				}
			}
			escaped = true
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == ast.Expr(use) {
					return // (re)assignment
				}
			}
			escaped = true
		default:
			escaped = true
		}
	})
	// A capture by a nested function literal is an escape: the
	// closure may End it on paths this CFG cannot see.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if use, ok := m.(*ast.Ident); ok && pass.ObjectOf(use) == obj {
					escaped = true
				}
				return true
			})
			return false
		}
		return true
	})
	if escaped || deferred {
		return spanTrack{}, false
	}
	return spanTrack{start: start, obj: obj, name: id.Name, enders: enderCalls}, true
}

// checkSpanFlow runs a forward may-analysis over the body's CFG: bit
// i means "span i is live (started, not yet ended)". The bit is
// gen'd at the Start assignment, killed by any node containing one of
// the span's ender calls or a reassignment, and must be clear at
// every return and at the fall-off-the-end exit. Panic exits are
// exempt: a panicking path is not a return path.
func checkSpanFlow(pass *Pass, body *ast.BlockStmt, tracks []spanTrack) {
	cfg := BuildCFG(body)
	step := func(n ast.Node, state BitSet) {
		for i := range tracks {
			tr := &tracks[i]
			if n == ast.Node(tr.start) {
				state.Set(i)
				continue
			}
			killed := false
			for _, e := range tr.enders {
				if n.Pos() <= e.Pos() && e.End() <= n.End() {
					killed = true
				}
			}
			if !killed {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if id, ok := l.(*ast.Ident); ok && pass.ObjectOf(id) == tr.obj {
							killed = true
						}
					}
				}
			}
			if killed {
				state.Clear(i)
			}
		}
	}
	ins := cfg.ForwardMay(len(tracks), func(b *Block, out BitSet) {
		for _, n := range b.Nodes {
			step(n, out)
		}
	})
	report := func(state BitSet, exitLine int) {
		for i := range tracks {
			if state.Has(i) {
				tr := &tracks[i]
				pass.Reportf(tr.start.Pos(), "span %s started here does not reach %s.End() on the return path at line %d",
					tr.name, tr.name, exitLine)
			}
		}
	}
	for _, b := range cfg.Blocks {
		if !cfg.Reachable(b) {
			continue
		}
		switch b.Term {
		case TermReturn:
			state := ins[b.Index].Clone()
			for _, n := range b.Nodes {
				step(n, state)
				if r, ok := n.(*ast.ReturnStmt); ok {
					report(state, pass.Fset.Position(r.Pos()).Line)
				}
			}
		case TermFall:
			state := ins[b.Index].Clone()
			for _, n := range b.Nodes {
				step(n, state)
			}
			report(state, pass.Fset.Position(body.Rbrace).Line)
		}
	}
}

// isDeferred reports whether call is the call of a defer statement.
func isDeferred(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	d, ok := parents[call].(*ast.DeferStmt)
	return ok && d.Call == call
}
