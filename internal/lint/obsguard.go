package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsGuard proves the observability layer's "free when off" contract
// shape-wise:
//
//  1. In the metrics kernel (any package named "obs"), every exported
//     method on a pointer receiver must either begin with a
//     nil-receiver guard (if r == nil { ... return }) or consist of a
//     single delegation to another method on the same receiver (whose
//     guard it inherits, e.g. Counter.Inc -> Counter.Add). A metric
//     method without its guard panics the instrumented hot path the
//     first time observability is disabled.
//
//  2. Everywhere: a span obtained from a Start() call (any method
//     returning a type named Span) must reach an End call on every
//     return path of the enclosing function — a span that escapes a
//     return path silently under-counts its histogram, which no
//     runtime test notices. A deferred End covers all paths; a span
//     passed onward (stored, returned, handed to another function) is
//     assumed managed there.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "nil-receiver guards on obs metric methods; spans must End on all return paths",
	Run:  runObsGuard,
}

func runObsGuard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Pkg.Name == "obs" {
				checkNilGuard(pass, fd)
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

// checkNilGuard enforces rule 1 on one declaration.
func checkNilGuard(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
		return
	}
	if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok {
		return // value receivers carry their own zero-value semantics
	}
	recv := receiverName(fd)
	if recv == "" {
		pass.Reportf(fd.Name.Pos(), "exported method %s on a pointer metric type has an unnamed receiver and cannot nil-guard it", fd.Name.Name)
		return
	}
	if beginsWithNilGuard(fd, recv) || isTailDelegation(fd, recv) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported method %s on a pointer metric type must begin with a nil-receiver guard (if %s == nil { ... })", fd.Name.Name, recv)
}

func receiverName(fd *ast.FuncDecl) string {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}

// beginsWithNilGuard reports whether the first statement is an if
// whose condition checks recv == nil (directly or as an operand of a
// top-level ||) and whose body leaves the function.
func beginsWithNilGuard(fd *ast.FuncDecl, recv string) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	ifStmt, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || !condChecksNil(ifStmt.Cond, recv) {
		return false
	}
	n := len(ifStmt.Body.List)
	return n > 0 && terminates(ifStmt.Body.List[n-1])
}

// condChecksNil looks for `recv == nil` among the top-level ||
// operands of cond.
func condChecksNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			return condChecksNil(e.X, recv) || condChecksNil(e.Y, recv)
		case token.EQL:
			return isIdentNamed(e.X, recv) && isNilIdent(e.Y) ||
				isIdentNamed(e.Y, recv) && isNilIdent(e.X)
		}
	}
	return false
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNilIdent(e ast.Expr) bool { return isIdentNamed(e, "nil") }

// isTailDelegation reports whether the body is a single call (or
// return of a call) to another method on the same receiver, which
// carries the guard on the callee's side.
func isTailDelegation(fd *ast.FuncDecl, recv string) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch s := fd.Body.List[0].(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			call, _ = s.Results[0].(*ast.CallExpr)
		}
	}
	if call == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && isIdentNamed(sel.X, recv)
}

// checkSpans enforces rule 2 on one function body (declaration or
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
