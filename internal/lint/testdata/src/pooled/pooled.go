// Package pooled exercises the pooled analyzer: results of
// //coflow:pooled functions are loans into recycled storage that may
// not be used after the next pooled call on the same owner.
package pooled

type Item struct{ vals []int }

// Pool hands out pointers into storage it recycles on every call.
type Pool struct{ scratch Item }

// Get returns the recycled scratch item.
//
//coflow:pooled
func (p *Pool) Get() *Item {
	p.scratch.vals = p.scratch.vals[:0]
	return &p.scratch
}

func sink(it *Item) {}

// useAfterInvalidate reads the first loan after a second call on the
// same pool recycled it.
func useAfterInvalidate(p *Pool) int {
	a := p.Get()
	b := p.Get()
	n := a.vals[:] // want "pooled value a used after a later call"
	return len(n) + len(b.vals)
}

// interiorAlias tracks a slice read out of the loan.
func interiorAlias(p *Pool) int {
	a := p.Get()
	vals := a.vals
	p.Get()
	return len(vals) // want "pooled value vals used after a later call"
}

// onOnePath is stale only when the branch recycles the pool.
func onOnePath(p *Pool, again bool) int {
	a := p.Get()
	if again {
		p.Get()
	}
	return len(a.vals) // want "pooled value a used after a later call"
}

// otherOwners recycle other pools: clean.
func otherOwners(p, q *Pool) int {
	a := p.Get()
	q.Get()
	return len(a.vals)
}

// rebind re-arms the loan before each use: clean.
func rebind(p *Pool) {
	a := p.Get()
	sink(a)
	a = p.Get()
	sink(a)
}

// loop re-arms the loan on every iteration: clean.
func loop(p *Pool, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		a := p.Get()
		total += len(a.vals)
	}
	return total
}
