package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncBody parses a function body from source for CFG tests.
func parseFuncBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// nodeBlock returns the reachable block containing a node for which
// pred returns true, or nil.
func nodeBlock(c *CFG, pred func(ast.Node) bool) *Block {
	for _, b := range c.Blocks {
		if !c.Reachable(b) {
			continue
		}
		for _, n := range b.Nodes {
			if pred(n) {
				return b
			}
		}
	}
	return nil
}

func assignTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == name
	}
}

func TestCFGIfElse(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		a := 1
		if a > 0 {
			b := 2
			_ = b
		} else {
			c := 3
			_ = c
		}
		d := 4
		_ = d
	`))
	thenB := nodeBlock(c, assignTo("b"))
	elseB := nodeBlock(c, assignTo("c"))
	followB := nodeBlock(c, assignTo("d"))
	if thenB == nil || elseB == nil || followB == nil {
		t.Fatalf("missing branch blocks: then=%v else=%v follow=%v", thenB, elseB, followB)
	}
	if thenB == elseB {
		t.Fatalf("then and else share a block")
	}
	hasSucc := func(from, to *Block) bool {
		for _, s := range from.Succs {
			if s == to {
				return true
			}
		}
		return false
	}
	if !hasSucc(thenB, followB) || !hasSucc(elseB, followB) {
		t.Fatalf("branches do not rejoin at follow block")
	}
}

func TestCFGIfWithoutElseHasSkipEdge(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		a := 1
		if a > 0 {
			b := 2
			_ = b
		}
		d := 4
		_ = d
	`))
	condB := nodeBlock(c, assignTo("a"))
	followB := nodeBlock(c, assignTo("d"))
	found := false
	for _, s := range condB.Succs {
		if s == followB {
			found = true
		}
	}
	if !found {
		t.Fatalf("if without else must edge cond -> follow directly")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		for i := 0; i < 10; i++ {
			b := i
			_ = b
		}
		d := 1
		_ = d
	`))
	bodyB := nodeBlock(c, assignTo("b"))
	if bodyB == nil {
		t.Fatalf("loop body block not found")
	}
	// The body must cycle back: some path body -> ... -> body.
	seen := map[*Block]bool{}
	var stack []*Block
	stack = append(stack, bodyB.Succs...)
	cyclic := false
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == bodyB {
			cyclic = true
			break
		}
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	if !cyclic {
		t.Fatalf("for loop has no back edge to the body")
	}
}

func TestCFGInfiniteLoopFollowUnreachable(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		for {
			a := 1
			_ = a
		}
	`))
	// The function can only be left via Exit from... nowhere: no
	// return, no fall-off (the loop never exits), so Exit must be
	// unreachable.
	if c.Reachable(c.Exit) {
		t.Fatalf("exit of `for {}` must be unreachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
	outer:
		for {
			for {
				a := 1
				_ = a
				break outer
			}
		}
		d := 1
		_ = d
	`))
	followB := nodeBlock(c, assignTo("d"))
	if followB == nil {
		t.Fatalf("labeled break target (outer follow) is unreachable")
	}
	if !c.Reachable(c.Exit) {
		t.Fatalf("function exit unreachable despite labeled break")
	}
}

func TestCFGReturnTerminatorAndDeadCode(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		a := 1
		if a > 0 {
			return
		}
		b := 2
		_ = b
	`))
	var retB *Block
	for _, b := range c.Blocks {
		if b.Term == TermReturn {
			retB = b
		}
	}
	if retB == nil {
		t.Fatalf("no block marked TermReturn")
	}
	if retB.Succs[0] != c.Exit {
		t.Fatalf("return block must edge to Exit")
	}
	if nodeBlock(c, assignTo("b")) == nil {
		t.Fatalf("code after conditional return must stay reachable")
	}
}

func TestCFGPanicTerminator(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		a := 1
		if a > 0 {
			panic("boom")
		}
		_ = a
	`))
	found := false
	for _, b := range c.Blocks {
		if b.Term == TermPanic {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic call not marked TermPanic")
	}
}

func TestCFGSwitchFallthroughAndDefault(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		x := 1
		switch x {
		case 1:
			a := 1
			_ = a
			fallthrough
		case 2:
			b := 2
			_ = b
		default:
			e := 3
			_ = e
		}
		d := 4
		_ = d
	`))
	aB := nodeBlock(c, assignTo("a"))
	bB := nodeBlock(c, assignTo("b"))
	if aB == nil || bB == nil {
		t.Fatalf("switch clause blocks missing")
	}
	found := false
	for _, s := range aB.Succs {
		if s == bB {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough must edge clause 1 into clause 2")
	}
	if nodeBlock(c, assignTo("d")) == nil {
		t.Fatalf("switch follow block unreachable")
	}
}

func TestCFGSelectAndGoto(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		ch := make(chan int)
	again:
		select {
		case v := <-ch:
			_ = v
			goto again
		default:
			d := 1
			_ = d
		}
	`))
	if nodeBlock(c, assignTo("d")) == nil {
		t.Fatalf("select default clause unreachable")
	}
	if !c.Reachable(c.Exit) {
		t.Fatalf("exit unreachable")
	}
}
