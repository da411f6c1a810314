package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the named function or method a call invokes,
// or nil for calls through function values, builtins, and
// conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation.
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// rootIdent strips selectors, indexes, slices and parens down to the
// leftmost identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders ident/selector chains ("d.obs.reg") textually;
// anything more complex yields "".
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	default:
		return ""
	}
}

// isErrType reports whether t is the predeclared error type.
func isErrType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// forEachFuncBody invokes fn on root and on the body of every
// function literal nested inside it, at any depth — each body exactly
// once. Analyzers that treat function literals as independent
// control-flow universes (obsguard spans, pooled) iterate with this.
func forEachFuncBody(root *ast.BlockStmt, fn func(*ast.BlockStmt)) {
	fn(root)
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit.Body)
		}
		return true
	})
}

// inspectShallow walks the subtree like ast.Inspect but does not
// descend into nested function literals — their statements belong to
// a different function. The literal node itself is still visited, so
// construct checks (allocfree's "function literal" finding) see it.
func inspectShallow(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		fn(n)
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return true
	})
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
