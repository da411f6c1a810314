package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree rejects allocation-causing constructs inside functions
// annotated //coflow:allocfree. It is the compile-time sibling of the
// runtime gates (online.TestStepDoesNotAllocate and its siblings, the
// harness's alloc_kb_per_op): the runtime gates tell you THAT the hot path
// allocated, this analyzer tells you WHERE, before the code runs.
//
// Flagged constructs:
//
//   - slice and map composite literals, and &T{...} (escaping
//     composite)
//   - make, new
//   - append whose destination is not caller-owned scratch (rooted at
//     the receiver or a parameter)
//   - map assignment (may trigger growth)
//   - function literals (closure allocation) and go statements
//   - any call into package fmt
//   - string concatenation and allocating conversions
//     (string<->[]byte/[]rune, integer->string, concrete->interface)
//   - interface boxing at call sites: passing a non-pointer-shaped
//     concrete value where an interface parameter is expected
//   - calls to module-local functions that are not themselves
//     annotated //coflow:allocfree (the contract is transitive; the
//     standard library, except fmt, is trusted)
//
// A panic(...) statement is exempt, argument included: it is a cold
// terminator (the CFG's TermPanic) whose message formats at most
// once, on the way down.
//
// The analysis is deliberately conservative: a construct the escape
// analyzer would stack-allocate still needs an explicit
// "//lint:ignore allocfree <reason>" so the exemption is visible in
// review. cmd/escapecheck closes the remaining gap against the real
// escape analysis.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "reject allocation-causing constructs in //coflow:allocfree functions",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !FuncAnnotations(fd)["allocfree"] {
				continue
			}
			checkAllocFree(pass, fd)
		}
	}
}

// checkAllocFree walks one annotated function body: every node of
// every reachable basic block (constructs in dead code cannot
// allocate at runtime; `go vet` flags the dead code itself), except
// panic(...) statements. Function literals are visited but not
// entered — the literal is the finding.
func checkAllocFree(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	owned := ownedObjects(pass, fd)
	visit := func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //coflow:allocfree but contains a function literal (closures allocate)", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is //coflow:allocfree but starts a goroutine (go statements allocate)", name)
		case *ast.CompositeLit:
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s is //coflow:allocfree but contains a slice literal", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "%s is //coflow:allocfree but contains a map literal", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s is //coflow:allocfree but takes the address of a composite literal", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) {
				pass.Reportf(n.Pos(), "%s is //coflow:allocfree but concatenates strings", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "%s is //coflow:allocfree but concatenates strings", name)
			}
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := pass.TypeOf(idx.X).Underlying().(*types.Map); isMap {
						pass.Reportf(lhs.Pos(), "%s is //coflow:allocfree but assigns into a map (growth allocates)", name)
					}
				}
			}
		case *ast.CallExpr:
			checkAllocFreeCall(pass, fd, n, owned)
		}
	}
	cfg := BuildCFG(fd.Body)
	for _, b := range cfg.Blocks {
		if !cfg.Reachable(b) {
			continue
		}
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicCall(es.X) {
				continue
			}
			inspectShallow(n, visit)
		}
	}
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

// checkAllocFreeCall vets one call expression inside an annotated
// function.
func checkAllocFreeCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, owned map[types.Object]bool) {
	name := fd.Name.Name
	info := pass.Pkg.Info

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, fd, call)
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s is //coflow:allocfree but calls make", name)
			case "new":
				pass.Reportf(call.Pos(), "%s is //coflow:allocfree but calls new", name)
			case "append":
				checkAppendDst(pass, fd, call, owned)
			}
			return
		}
	}

	fn := calleeFunc(pass, call)
	if fn == nil {
		// Call through a function value: the value's creation is what
		// allocates, and that is flagged where it happens.
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		if pkg.Path() == "fmt" {
			pass.Reportf(call.Pos(), "%s is //coflow:allocfree but calls fmt.%s (fmt allocates)", name, fn.Name())
			return
		}
		if moduleLocal(pass.Pkg, pkg.Path()) && !pass.Index.Annotated(fn, "allocfree") {
			pass.Reportf(call.Pos(), "%s is //coflow:allocfree but calls %s which is not annotated //coflow:allocfree", name, fn.FullName())
			return
		}
	}
	checkBoxing(pass, fd, call)
}

// moduleLocal reports whether path names a package of the same
// module as pkg (or the same package, for standalone loads).
func moduleLocal(pkg *Package, path string) bool {
	if pkg.Module == "" {
		return path == pkg.Path
	}
	return path == pkg.Module || len(path) > len(pkg.Module) && path[:len(pkg.Module)+1] == pkg.Module+"/"
}

// checkConversion flags conversions that copy memory: string <->
// []byte/[]rune, integer -> string, and boxing into an interface
// type.
func checkConversion(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	name := fd.Name.Name
	dst := pass.TypeOf(call)
	src := pass.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	switch {
	case isString(dst) && !isString(src):
		pass.Reportf(call.Pos(), "%s is //coflow:allocfree but converts to string (allocates)", name)
	case isByteOrRuneSlice(du) && isString(src):
		pass.Reportf(call.Pos(), "%s is //coflow:allocfree but converts a string to a byte/rune slice (allocates)", name)
	case types.IsInterface(du) && !types.IsInterface(su) && !pointerShaped(su):
		pass.Reportf(call.Pos(), "%s is //coflow:allocfree but boxes a %s into interface %s (allocates)", name, src, dst)
	}
}

// checkAppendDst allows append only into caller-owned scratch: the
// destination must be rooted at the receiver or a parameter of the
// annotated function (e.g. s.served = append(s.served, ...)).
func checkAppendDst(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, owned map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := call.Args[0]
	if root := rootIdent(dst); root != nil {
		if obj := pass.ObjectOf(root); obj != nil && owned[obj] {
			return
		}
	}
	pass.Reportf(call.Pos(), "%s is //coflow:allocfree but appends to %s, which is not receiver- or parameter-owned scratch",
		fd.Name.Name, describeExpr(dst))
}

// checkBoxing flags arguments boxed into interface parameters:
// passing a non-pointer-shaped concrete value (int, string, struct)
// where an interface is expected allocates the interface data word.
func checkBoxing(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	name := fd.Name.Name
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // x... spreads an existing slice, no boxing here
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				return
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic instantiation, not interface boxing
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || pointerShaped(at.Underlying()) {
			continue
		}
		if tv, ok := pass.Pkg.Info.Types[arg]; ok && (tv.IsNil() || tv.Value != nil && isString(at)) {
			// Untyped nil never boxes; constant strings may still
			// allocate, but flagging literals in cold diagnostics is
			// all noise — the fmt rule already covers the hot cases.
			continue
		}
		pass.Reportf(arg.Pos(), "%s is //coflow:allocfree but boxes %s (type %s) into interface parameter %d of %s",
			name, describeExpr(arg), at, i, describeExpr(call.Fun))
	}
}

// pointerShaped reports whether values of underlying type u fit the
// interface data word without an allocation.
func pointerShaped(u types.Type) bool {
	switch u.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(u types.Type) bool {
	s, ok := u.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// describeExpr renders a short name for an expression in a message.
func describeExpr(e ast.Expr) string {
	if s := exprString(e); s != "" {
		return s
	}
	if root := rootIdent(e); root != nil {
		return root.Name + "..."
	}
	return "expression"
}
