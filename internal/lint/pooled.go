package lint

import (
	"go/ast"
	"go/types"
)

// Pooled checks the aliasing contract of recycled results: a function
// annotated //coflow:pooled returns pointers into storage owned by its
// receiver (bvn.Decomposer.Decompose/Update, online.Planner.Plan,
// online.State.Step), valid only until the next //coflow:pooled call
// on the same receiver. A use of such a loan after that call reads
// whatever the pool holds now — for a *bvn.Decomposition, the new
// plan through the same pointer — so a comparison of "before" against
// "after" is silently vacuous. The rule is flow-sensitive over the
// CFG: a reassignment in a loop is fine, a genuine
// use-after-invalidation on any path is not.
//
// The analysis is intraprocedural and tracks locals bound to a pooled
// result, plus their reference-shaped aliases and interior reads;
// where a loan is stored or who else reads it is left to the race
// detector and the behaviour tests (DESIGN.md "Static analysis").
var Pooled = &Analyzer{
	Name: "pooled",
	Doc:  "results of //coflow:pooled functions must not be used after the next pooled call on the same receiver",
	Run:  runPooled,
}

// pooledTrack is one local variable holding a pooled loan.
type pooledTrack struct {
	// key identifies the pool owner (the receiver expression text of
	// the originating call); a second pooled call with the same key
	// invalidates the loan.
	key  string
	name string
}

func runPooled(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The declaration's body is one analysis universe; every
			// nested function literal is another.
			forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
				if tracks := collectPooledTracks(pass, body); len(tracks) > 0 {
					checkPooledStaleness(pass, body, tracks)
				}
			})
		}
	}
}

// pooledCallKey resolves call to a //coflow:pooled callee and returns
// the pool-owner key, or ok=false. The key is the receiver chain
// ("p.dec" in p.dec.Decompose(...)); calls whose receiver is not a
// plain ident/selector chain get key "" and never cross-invalidate.
func pooledCallKey(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || !pass.Index.Annotated(fn, "pooled") {
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X), true
	}
	return "", true
}

// collectPooledTracks finds the local variables bound to pooled
// loans: direct results of pooled calls, plus aliases and
// reference-shaped interior reads of already-tracked variables.
// Iterates to a fixpoint so declaration order does not matter.
func collectPooledTracks(pass *Pass, body *ast.BlockStmt) map[types.Object]*pooledTrack {
	tracks := map[types.Object]*pooledTrack{}
	for {
		changed := false
		inspectShallow(body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return
			}
			var key string
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				k, isPooled := pooledCallKey(pass, call)
				if !isPooled {
					return
				}
				key = k
			} else if root := rootIdent(as.Rhs[0]); root != nil {
				tr, ok := tracks[pass.ObjectOf(root)]
				if !ok || !refShaped(pass.TypeOf(as.Rhs[0])) {
					return
				}
				key = tr.key
			} else {
				return
			}
			for _, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil || isErrType(obj.Type()) || tracks[obj] != nil {
					continue
				}
				if !refShaped(obj.Type()) && !structWithRefs(obj.Type()) {
					continue
				}
				tracks[obj] = &pooledTrack{key: key, name: id.Name}
				changed = true
			}
		})
		if !changed {
			return tracks
		}
	}
}

// refShaped reports whether t can alias pool storage: pointers,
// slices, maps, channels, and interfaces.
func refShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// structWithRefs reports whether t is a struct value carrying at
// least one reference-shaped field (online.StepResult: the struct is
// copied but its slices still alias the pool).
func structWithRefs(t types.Type) bool {
	if t == nil {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if refShaped(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// checkPooledStaleness runs the CFG dataflow: two bits per track,
// "active" (holds a live loan) and "stale" (a later pooled call on
// the same owner recycled the storage). Any use of a stale loan is an
// error.
func checkPooledStaleness(pass *Pass, body *ast.BlockStmt, tracks map[types.Object]*pooledTrack) {
	list := make([]*pooledTrack, 0, len(tracks))
	slot := map[types.Object]int{}
	for obj, tr := range tracks {
		slot[obj] = len(list)
		list = append(list, tr)
	}
	activeBit := func(i int) int { return 2 * i }
	staleBit := func(i int) int { return 2*i + 1 }

	step := func(n ast.Node, state BitSet, report bool) {
		// 1. Uses of stale loans (checked before this node's own
		// invalidations take effect).
		if report {
			lhsTargets := map[*ast.Ident]bool{}
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						lhsTargets[id] = true
					}
				}
			}
			inspectShallow(n, func(m ast.Node) {
				id, ok := m.(*ast.Ident)
				if !ok || lhsTargets[id] {
					return
				}
				if i, ok := slot[pass.ObjectOf(id)]; ok && state.Has(staleBit(i)) {
					tr := list[i]
					pass.Reportf(id.Pos(), "pooled value %s used after a later call on %q invalidated it: the pool recycled its storage", tr.name, tr.key)
				}
			})
		}
		// 2. Pooled calls invalidate every active loan from the same
		// owner.
		inspectShallow(n, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			key, ok := pooledCallKey(pass, call)
			if !ok || key == "" {
				return
			}
			for i, tr := range list {
				if tr.key == key && state.Has(activeBit(i)) {
					state.Set(staleBit(i))
				}
			}
		})
		// 3. Assignments rebind: a fresh pooled result re-arms the
		// loan; anything else releases it.
		if as, ok := n.(*ast.AssignStmt); ok {
			fromPooled := false
			if len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
					_, fromPooled = pooledCallKey(pass, call)
				}
				if root := rootIdent(as.Rhs[0]); !fromPooled && root != nil {
					_, fromPooled = slot[pass.ObjectOf(root)]
				}
			}
			for _, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if i, ok := slot[pass.ObjectOf(id)]; ok {
					state.Clear(staleBit(i))
					if fromPooled {
						state.Set(activeBit(i))
					} else {
						state.Clear(activeBit(i))
					}
				}
			}
		}
	}

	cfg := BuildCFG(body)
	ins := cfg.ForwardMay(2*len(list), func(b *Block, out BitSet) {
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
