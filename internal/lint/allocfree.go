package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllocFree is one of three gates on the //coflow:allocfree contract
// and keeps only the rules the other two cannot see. The compiler
// (cmd/escapecheck) reports every value it heap-allocates — literals,
// make/new, closures, boxing, fmt arguments, string building — hot
// branch or cold; the runtime gates (the *DoesNotAllocate tests) count
// whatever a measured slot really allocates. Three things slip past
// both (DESIGN.md "Static analysis" has the planted-regression matrix
// behind this split):
//
//   - append whose destination is not caller-owned scratch (rooted at
//     the receiver or a parameter): growth is amortized, so the
//     compiler reports nothing and AllocsPerRun's integer average
//     rounds it to zero
//   - a write into a map, for the same reason
//   - a call to a module-local function that is not itself annotated
//     //coflow:allocfree (the contract is transitive; the standard
//     library is trusted): a callee that is not inlined keeps its
//     escapes outside the annotated range, and a cold one is never
//     measured
//
// Receiver-owned scratch is trusted to reach a steady-state capacity;
// that is the author's claim, which the runtime gates measure.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "amortized growth (append, map writes) and un-annotated callees in //coflow:allocfree functions",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && FuncAnnotations(fd)["allocfree"] {
				checkAllocFree(pass, fd)
			}
		}
	}
}

// checkAllocFree walks one annotated function body, function literals
// included: a closure's statements run on the annotated path too.
func checkAllocFree(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	owned := ownedObjects(pass, fd)
	mapWrite := func(lhs ast.Expr) {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := pass.TypeOf(idx.X).Underlying().(*types.Map); isMap {
				pass.Reportf(lhs.Pos(), "%s is //coflow:allocfree but writes into a map (growth allocates)", name)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mapWrite(lhs)
			}
		case *ast.IncDecStmt:
			mapWrite(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
					if root := rootIdent(n.Args[0]); root == nil || !owned[pass.ObjectOf(root)] {
						pass.Reportf(n.Pos(), "%s is //coflow:allocfree but appends to %s, which is not receiver- or parameter-owned scratch",
							name, describeExpr(n.Args[0]))
					}
				}
			}
			if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
				moduleLocal(pass.Pkg, fn.Pkg().Path()) && !pass.Index.Annotated(fn, "allocfree") {
				pass.Reportf(n.Pos(), "%s is //coflow:allocfree but calls %s which is not annotated //coflow:allocfree", name, fn.FullName())
			}
		}
		return true
	})
}

// ownedObjects collects the receiver and parameter objects of fd:
// scratch rooted at these is caller-owned and pre-sized, so append
// into it is amortized allocation-free.
func ownedObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	owned := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if obj := pass.Pkg.Info.Defs[id]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return owned
}

// moduleLocal reports whether path names a package of the same
// module as pkg (or the same package, for standalone loads).
func moduleLocal(pkg *Package, path string) bool {
	if pkg.Module == "" {
		return path == pkg.Path
	}
	return path == pkg.Module || strings.HasPrefix(path, pkg.Module+"/")
}
