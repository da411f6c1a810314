package lint

import (
	"go/ast"
	"testing"
)

// genKill builds a transfer function from per-node gen/kill sets
// keyed by the name assigned in an AssignStmt, mimicking how the real
// analyzers drive the solver.
func genKill(gen, kill map[string]int) TransferFunc {
	return func(b *Block, out BitSet) {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				continue
			}
			if bit, ok := kill[id.Name]; ok {
				out.Clear(bit)
			}
			if bit, ok := gen[id.Name]; ok {
				out.Set(bit)
			}
		}
	}
}

func TestForwardMayJoinsBranches(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		x := 0
		if x > 0 {
			a := 1
			_ = a
		} else {
			b := 2
			_ = b
		}
		d := 3
		_ = d
	`))
	// bit 0 gen'd in then branch, bit 1 in else branch.
	ins := c.ForwardMay(2, genKill(map[string]int{"a": 0, "b": 1}, nil))
	followB := nodeBlock(c, assignTo("d"))
	in := ins[followB.Index]
	if !in.Has(0) || !in.Has(1) {
		t.Fatalf("may-join at follow block lost a branch fact: %v", in)
	}
}

func TestForwardMayKill(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		a := 1
		_ = a
		k := 2
		_ = k
		d := 3
		_ = d
	`))
	ins := c.ForwardMay(1, genKill(map[string]int{"a": 0}, map[string]int{"k": 0}))
	followB := nodeBlock(c, assignTo("d"))
	// a gens bit 0, k kills it: straight-line, so the follow node is
	// in the same block; check the exit in-state instead.
	_ = followB
	exitIn := ins[c.Exit.Index]
	if exitIn.Has(0) {
		t.Fatalf("killed fact survived to exit")
	}
}

func TestForwardMayTerminatesOnCyclicCFG(t *testing.T) {
	c := BuildCFG(parseFuncBody(t, `
		for i := 0; i < 10; i++ {
			a := 1
			_ = a
			for j := 0; j < 10; j++ {
				b := 2
				_ = b
			}
		}
		d := 3
		_ = d
	`))
	// Gen in both loop bodies, never killed: the fixpoint must still
	// terminate (monotone lattice) and the facts must flow around the
	// back edges into the loop heads.
	ins := c.ForwardMay(2, genKill(map[string]int{"a": 0, "b": 1}, nil))
	bodyA := nodeBlock(c, assignTo("a"))
	if !ins[bodyA.Index].Has(0) {
		t.Fatalf("fact gen'd in loop body did not flow around the back edge")
	}
	followB := nodeBlock(c, assignTo("d"))
	if !ins[followB.Index].Has(0) || !ins[followB.Index].Has(1) {
		t.Fatalf("loop facts missing after the loop: %v", ins[followB.Index])
	}
}

func TestBitSetOps(t *testing.T) {
	s := newBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatalf("bitset set/has broken across words")
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatalf("clear failed")
	}
	o := newBitSet(130)
	o.Set(7)
	if !o.UnionWith(s) {
		t.Fatalf("union should report change")
	}
	if o.UnionWith(s) {
		t.Fatalf("second union should be a no-op")
	}
	if !o.Has(0) || !o.Has(7) || !o.Has(129) {
		t.Fatalf("union lost bits")
	}
}
