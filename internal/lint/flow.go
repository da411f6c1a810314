package lint

// Worklist dataflow over a CFG. The lattice is a fixed-width bit
// vector with union as join ("may" analyses); transfer functions are
// supplied by the analyzer and must be monotone (gen/kill style), so
// the fixpoint iteration terminates.

// BitSet is a fixed-capacity bit vector.
type BitSet []uint64

func newBitSet(nbits int) BitSet { return make(BitSet, (nbits+63)/64) }

func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s BitSet) Set(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s BitSet) Clear(i int)    { s[i/64] &^= 1 << uint(i%64) }

// UnionWith ors o into s and reports whether s changed.
func (s BitSet) UnionWith(o BitSet) bool {
	changed := false
	for i, w := range o {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

func (s BitSet) CopyFrom(o BitSet) { copy(s, o) }

func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// TransferFunc rewrites out in place given a block; out is
// pre-initialized to the block's in-state before the call.
type TransferFunc func(b *Block, out BitSet)

// ForwardMay solves a forward may-analysis to fixpoint and returns
// the in-state of every block, indexed by Block.Index. The entry
// block's in-state is empty; join is union. Only reachable blocks are
// iterated, so unreachable code keeps an empty state.
func (c *CFG) ForwardMay(nbits int, transfer TransferFunc) []BitSet {
	ins := make([]BitSet, len(c.Blocks))
	outs := make([]BitSet, len(c.Blocks))
	for i := range c.Blocks {
		ins[i] = newBitSet(nbits)
		outs[i] = newBitSet(nbits)
	}
	work := make([]*Block, 0, len(c.Blocks))
	inWork := make([]bool, len(c.Blocks))
	for _, b := range c.Blocks {
		if c.Reachable(b) {
			work = append(work, b)
			inWork[b.Index] = true
		}
	}
	tmp := newBitSet(nbits)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		in := ins[b.Index]
		for i := range in {
			in[i] = 0
		}
		for _, p := range b.Preds {
			if c.Reachable(p) {
				in.UnionWith(outs[p.Index])
			}
		}
		tmp.CopyFrom(in)
		transfer(b, tmp)
		if outs[b.Index].UnionWith(tmp) {
			for _, s := range b.Succs {
				if !inWork[s.Index] && c.Reachable(s) {
					work = append(work, s)
					inWork[s.Index] = true
				}
			}
		}
	}
	return ins
}
