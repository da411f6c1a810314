package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// GuardedBy checks the repo's concurrency annotations: a struct
// field commented
//
//	// guarded by <mu>
//
// may only be read or written in a function that locks <mu>
// (<mu>.Lock() or <mu>.RLock() on the same base expression as the
// access), or in a function annotated //coflow:singlewriter — the
// daemon's event-loop discipline, where one goroutine owns all the
// mutable state and no lock exists to take.
//
// When <mu> names a sibling field of type sync.Mutex or sync.RWMutex
// the lock requirement applies; any other guard name (e.g. "eventloop")
// declares a pure serialization domain in which ONLY
// //coflow:singlewriter functions may touch the field.
//
// The lock check is lexical, not flow-sensitive: a Lock anywhere in
// the accessing function satisfies it. That is exactly the right
// strength for this codebase's small critical sections, and wrong
// code still has to say something out loud to pass.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated 'guarded by <mu>' are only touched under the lock or by //coflow:singlewriter functions",
	Run:  runGuardedBy,
}

var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo describes one annotated field.
type guardInfo struct {
	guard   string // guard name from the annotation
	isMutex bool   // guard resolves to a sibling sync.Mutex/RWMutex field
}

func runGuardedBy(pass *Pass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedAccesses(pass, fd, guarded)
		}
	}
}

// collectGuardedFields scans the package's struct declarations for
// "guarded by" field annotations (in the field's doc comment or its
// trailing line comment).
func collectGuardedFields(pass *Pass) map[types.Object]guardInfo {
	out := map[types.Object]guardInfo{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				guard := fieldGuard(field)
				if guard == "" {
					continue
				}
				info := guardInfo{guard: guard, isMutex: siblingMutex(pass, st, guard)}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						out[obj] = info
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldGuard extracts the guard name from a field's comments.
func fieldGuard(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// siblingMutex reports whether the struct has a field named guard of
// type sync.Mutex or sync.RWMutex.
func siblingMutex(pass *Pass, st *ast.StructType, guard string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guard {
				continue
			}
			t := pass.TypeOf(field.Type)
			if t == nil {
				return false
			}
			s := t.String()
			return s == "sync.Mutex" || s == "sync.RWMutex"
		}
	}
	return false
}

// checkGuardedAccesses vets every guarded-field selector in fd.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[types.Object]guardInfo) {
	singleWriter := FuncAnnotations(fd)["singlewriter"]
	var locks map[string]bool
	if !singleWriter {
		locks = collectLockedPrefixes(fd)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[sel.Sel]
		info, ok := guarded[obj]
		if !ok {
			return true
		}
		if singleWriter {
			return true
		}
		if info.isMutex {
			if base := exprString(sel.X); base != "" && locks[base+"."+info.guard] {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "field %s is guarded by %s but the access does not hold %s.%s (no %s.%s.Lock/RLock in %s, which is not //coflow:singlewriter)",
				sel.Sel.Name, info.guard, describeExpr(sel.X), info.guard, describeExpr(sel.X), info.guard, fd.Name.Name)
			return true
		}
		pass.Reportf(sel.Sel.Pos(), "field %s is guarded by the %q serialization domain but %s is not annotated //coflow:singlewriter",
			sel.Sel.Name, info.guard, fd.Name.Name)
		return true
	})
}

// collectLockedPrefixes gathers "base.mu" strings for every
// base.mu.Lock() / base.mu.RLock() call in the function.
func collectLockedPrefixes(fd *ast.FuncDecl) map[string]bool {
	locks := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if prefix := exprString(sel.X); prefix != "" {
			locks[prefix] = true
		}
		return true
	})
	return locks
}
