package lint

import (
	"go/ast"
	"go/token"
)

// This file builds intraprocedural control-flow graphs from go/ast
// function bodies. The CFG is deliberately small: blocks hold only
// "atomic" nodes — simple statements and the control expressions that
// drive branches (if conditions, range operands, switch tags, case
// expressions) — never compound statements. An analyzer can therefore
// ast.Inspect every node of every block without visiting any
// sub-statement twice, and a node's position in the block order is its
// evaluation order.

// TermKind classifies how a block transfers control to the synthetic
// exit block, so analyzers can treat normal returns, panics, and the
// implicit fall-off-the-end exit differently (span-hygiene, for one,
// exempts panic paths).
type TermKind int

const (
	// TermNone: the block does not edge to Exit (or only falls
	// through to an ordinary successor).
	TermNone TermKind = iota
	// TermReturn: the block ends in an explicit return statement.
	TermReturn
	// TermPanic: the block ends in a call to panic.
	TermPanic
	// TermFall: control falls off the closing brace of the function.
	TermFall
)

// Block is one basic block: a maximal straight-line run of atomic
// nodes. Entry is Blocks[0]; the synthetic Exit block has no nodes.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Term says how this block reaches the CFG's Exit, if it does.
	Term TermKind
}

// CFG is the control-flow graph of a single function body. A defer
// statement is one atomic node where it appears; the deferred call's
// run at every exit is not modeled as an edge.
type CFG struct {
	Blocks []*Block
	Exit   *Block

	reach []bool
}

// Reachable reports whether b is reachable from the entry block.
func (c *CFG) Reachable(b *Block) bool { return c.reach[b.Index] }

type loopTarget struct {
	label string
	block *Block
}

type cfgBuilder struct {
	cfg       *CFG
	cur       *Block
	breaks    []loopTarget
	continues []loopTarget
	labels    map[string]*Block
	// curLabel is the pending label for the next loop/switch/select,
	// so labeled break/continue can find their targets.
	curLabel string
}

// BuildCFG constructs the CFG of a function body (FuncDecl.Body or
// FuncLit.Body). Nested function literals are opaque: their bodies are
// not traversed; the literal appears as part of whatever atomic node
// contains it.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
	}
	b.cfg.Exit = b.newBlock()
	entry := b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	if b.cur.Term == TermNone {
		b.cur.Term = TermFall
		b.edge(b.cur, b.cfg.Exit)
	}
	// Entry-first ordering is convenient for solvers and tests; the
	// exit block sorts last.
	old := b.cfg.Blocks
	blocks := make([]*Block, 0, len(old))
	blocks = append(blocks, old[1])
	blocks = append(blocks, old[2:]...)
	blocks = append(blocks, old[0])
	b.cfg.Blocks = blocks
	for i, blk := range blocks {
		blk.Index = i
	}
	for _, blk := range blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	b.cfg.computeReach()
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// dangle starts a fresh, unreachable block after an unconditional
// transfer (return, break, goto, panic). Statements that follow are
// still recorded — they are dead code — but carry no in-edges.
func (b *cfgBuilder) dangle() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.cur.Term = TermReturn
		b.edge(b.cur, b.cfg.Exit)
		b.dangle()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur.Term = TermPanic
			b.edge(b.cur, b.cfg.Exit)
			b.dangle()
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		follow := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, follow)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, follow)
		} else {
			b.edge(cond, follow)
		}
		b.cur = follow

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		follow := b.newBlock()
		if s.Cond != nil {
			b.edge(head, follow)
		}
		post := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.breaks = append(b.breaks, loopTarget{label, follow})
		b.continues = append(b.continues, loopTarget{label, post})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.cur = follow

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s.X)
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		follow := b.newBlock()
		b.edge(head, follow)
		body := b.newBlock()
		b.edge(head, body)
		b.breaks = append(b.breaks, loopTarget{label, follow})
		b.continues = append(b.continues, loopTarget{label, head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = follow

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitchClauses(s.Body, label, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The assign form (v := x.(type)) is a shallow statement:
		// record it whole so analyzers see the declared variable.
		b.add(s.Assign)
		b.buildSwitchClauses(s.Body, label, func(cc *ast.CaseClause, blk *Block) {})

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		follow := b.newBlock()
		b.breaks = append(b.breaks, loopTarget{label, follow})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(sel, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, follow)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = follow

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.dangle()
		case token.CONTINUE:
			if t := findTarget(b.continues, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.dangle()
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(s.Label.Name))
			b.dangle()
		case token.FALLTHROUGH:
			// Handled structurally in buildSwitchClauses.
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt, and
		// anything else simple: one atomic node.
		b.add(s)
	}
}

// buildSwitchClauses wires the shared clause structure of switch and
// type-switch statements: every clause is entered from the dispatch
// block, fallthrough edges into the next clause body, and a missing
// default adds a dispatch→follow edge.
func (b *cfgBuilder) buildSwitchClauses(body *ast.BlockStmt, label string, caseNodes func(*ast.CaseClause, *Block)) {
	dispatch := b.cur
	follow := b.newBlock()
	b.breaks = append(b.breaks, loopTarget{label, follow})
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	bodyBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodyBlocks[i] = b.newBlock()
		b.edge(dispatch, bodyBlocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		b.cur = bodyBlocks[i]
		caseNodes(cc, bodyBlocks[i])
		falls := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
			}
			b.stmt(st)
		}
		if falls && i+1 < len(bodyBlocks) {
			b.edge(b.cur, bodyBlocks[i+1])
			b.dangle()
		} else {
			b.edge(b.cur, follow)
		}
	}
	if !hasDefault {
		b.edge(dispatch, follow)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = follow
}

func findTarget(stack []loopTarget, label *ast.Ident) *Block {
	if label == nil {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (c *CFG) computeReach() {
	c.reach = make([]bool, len(c.Blocks))
	var stack []*Block
	stack = append(stack, c.Blocks[0])
	c.reach[c.Blocks[0].Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !c.reach[s.Index] {
				c.reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
}
