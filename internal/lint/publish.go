package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Publish enforces the snapshot-publication discipline of the shard
// and daemon planes: a value handed to atomic.Pointer.Store becomes
// visible to concurrent readers with no further synchronization, so
// it must be frozen — no writes through the published variable or any
// local alias of it, on any CFG path after the publication point.
// The race detector sees such a write only where a test reads the
// written field concurrently; this analyzer sees every field.
//
// Aliasing is tracked flow-insensitively (any assignment linking two
// reference-shaped locals merges them into one class; publication
// marks the whole class) and publication flow-sensitively (a bit per
// variable, set at the sink, cleared when that variable is rebound to
// a fresh value). Writes through a marked variable — field stores,
// element stores, IncDec — are errors.
var Publish = &Analyzer{
	Name: "publish",
	Doc:  "values published via atomic.Pointer.Store must be frozen",
	Run:  runPublish,
}

func runPublish(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
				checkPublishIn(pass, body)
			})
		}
	}
}

// atomicPointerSink returns the published value expression when call
// is atomic.Pointer[T].Store(v), else nil.
func atomicPointerSink(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" || len(call.Args) != 1 {
		return nil
	}
	t := pass.TypeOf(sel.X)
	if t == nil || !strings.HasPrefix(strings.TrimPrefix(t.String(), "*"), "sync/atomic.Pointer[") {
		return nil
	}
	return call.Args[0]
}

// localRefVar resolves id to a function-local (or parameter)
// reference-shaped variable, else nil.
func localRefVar(pass *Pass, id *ast.Ident) types.Object {
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if obj.Parent() == pass.Pkg.Types.Scope() || obj.Parent() == types.Universe {
		return nil
	}
	if !refShaped(v.Type()) {
		return nil
	}
	return obj
}

// aliasClasses is a union-find over local variables: any assignment
// whose right side mentions a reference-shaped local links it to the
// (reference-shaped) assigned variable — if one end is published,
// writes through the other can mutate the published object.
type aliasClasses struct {
	parent map[types.Object]types.Object
}

func (a *aliasClasses) find(o types.Object) types.Object {
	p, ok := a.parent[o]
	if !ok || p == o {
		return o
	}
	r := a.find(p)
	a.parent[o] = r
	return r
}

func (a *aliasClasses) union(x, y types.Object) {
	rx, ry := a.find(x), a.find(y)
	if rx != ry {
		a.parent[rx] = ry
	}
}

func checkPublishIn(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: find publication sinks and their root variables.
	type sink struct {
		call  *ast.CallExpr
		roots []types.Object
	}
	var sinks []sink
	inspectShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		value := atomicPointerSink(pass, call)
		if value == nil {
			return
		}
		var roots []types.Object
		inspectShallow(value, func(m ast.Node) {
			if id, ok := m.(*ast.Ident); ok {
				if obj := localRefVar(pass, id); obj != nil {
					roots = append(roots, obj)
				}
			}
		})
		if len(roots) > 0 {
			sinks = append(sinks, sink{call: call, roots: roots})
		}
	})
	if len(sinks) == 0 {
		return
	}

	// Pass 2: alias classes from every linking assignment.
	classes := &aliasClasses{parent: map[types.Object]types.Object{}}
	inspectShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := localRefVar(pass, id)
			if lobj == nil {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			default:
				continue
			}
			inspectShallow(rhs, func(m ast.Node) {
				if rid, ok := m.(*ast.Ident); ok {
					if robj := localRefVar(pass, rid); robj != nil && robj != lobj {
						classes.union(lobj, robj)
					}
				}
			})
		}
	})

	// The tracked variable set: every local sharing a class with a
	// sink root.
	published := map[types.Object]bool{}
	for _, s := range sinks {
		for _, r := range s.roots {
			published[classes.find(r)] = true
		}
	}
	vars := map[types.Object]int{}
	var names []string
	collect := func(o types.Object) {
		if _, ok := vars[o]; !ok && published[classes.find(o)] {
			vars[o] = len(names)
			names = append(names, o.Name())
		}
	}
	inspectShallow(body, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			if obj := localRefVar(pass, id); obj != nil {
				collect(obj)
			}
		}
	})
	if len(vars) == 0 {
		return
	}

	// Pass 3: flow-sensitive publication bits over the CFG.
	step := func(n ast.Node, state BitSet, report bool) {
		// Writes through a published variable (checked before this
		// node's own sinks fire: storing then writing in one
		// statement is still a write-after-store on re-execution,
		// but within one node order is program order).
		if report {
			checkWrite := func(lhs ast.Expr, at ast.Node) {
				root := rootIdent(lhs)
				if root == nil {
					return
				}
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					return // rebinding, handled below
				}
				obj := pass.ObjectOf(root)
				if obj == nil {
					return
				}
				if bit, ok := vars[obj]; ok && state.Has(bit) {
					pass.Reportf(at.Pos(), "write to %s after %s was published: values behind atomic.Pointer.Store must be frozen", describeExpr(lhs), root.Name)
				}
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					checkWrite(l, n)
				}
			case *ast.IncDecStmt:
				checkWrite(n.X, n)
			default:
				inspectShallow(n, func(m ast.Node) {
					switch m := m.(type) {
					case *ast.AssignStmt:
						for _, l := range m.Lhs {
							checkWrite(l, m)
						}
					case *ast.IncDecStmt:
						checkWrite(m.X, m)
					}
				})
			}
		}
		// Sinks set the publication bit for the whole alias class.
		inspectShallow(n, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			for _, s := range sinks {
				if s.call != call {
					continue
				}
				for _, r := range s.roots {
					rc := classes.find(r)
					for obj, bit := range vars {
						if classes.find(obj) == rc {
							state.Set(bit)
						}
					}
				}
			}
		})
		// Rebinding a variable to a fresh value releases it (the
		// published object is unreachable through this name now);
		// its aliases stay published.
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						if bit, ok := vars[obj]; ok {
							state.Clear(bit)
						}
					}
				}
			}
		}
	}

	cfg := BuildCFG(body)
	ins := cfg.ForwardMay(len(vars), func(b *Block, out BitSet) {
		for _, n := range b.Nodes {
			step(n, out, false)
		}
	})
	for _, b := range cfg.Blocks {
		if !cfg.Reachable(b) {
			continue
		}
		state := ins[b.Index].Clone()
		for _, n := range b.Nodes {
			step(n, state, true)
		}
	}
}
