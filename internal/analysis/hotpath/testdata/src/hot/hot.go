// Package hot exercises the call-graph walk: a //redsoc:hotpath function
// must not reach an allocation through any chain of calls, including across
// the package boundary into pool.
package hot

import "pool"

type sim struct {
	free []*pool.Entry
	head *pool.Entry
}

// collect is unmarked and allocation-free in its own body, but reaches
// pool.Grab two hops down.
func (s *sim) collect() *pool.Entry {
	return grab(s.free)
}

func grab(free []*pool.Entry) *pool.Entry {
	return pool.Grab(free)
}

//redsoc:hotpath
func (s *sim) tick() {
	s.head = s.collect() // want `reaches an allocation through \(\*hot\.sim\)\.collect -> hot\.grab -> pool\.Grab \(pool/pool\.go:\d+:\d+: calls new, which allocates`
}

func peek(free []*pool.Entry) *pool.Entry { return pool.Peek(free) }

//redsoc:hotpath
func (s *sim) idle() {
	s.head = peek(s.free) // allocation-free closure: not flagged
}

func refill(free []*pool.Entry) []*pool.Entry { return pool.Refill(free, 8) }

//redsoc:hotpath
func (s *sim) warm() {
	s.free = refill(s.free) // audited allocation in the chain: not flagged
}

// inner is itself marked, so callers prune at it: inner is audited as its own
// root, and its body allocation is the lexical finding below, not a
// transitive one replayed into every caller.
//
//redsoc:hotpath
func (s *sim) inner() *pool.Entry {
	return new(pool.Entry) // want `calls new, which allocates`
}

//redsoc:hotpath
func (s *sim) step() {
	s.head = s.inner() // pruned at the marked callee: not flagged
}

// spin is recursive; the walk must terminate and still find the allocation
// past the cycle.
func spin(n int, free []*pool.Entry) *pool.Entry {
	if n == 0 {
		return pool.Grab(free)
	}
	return spin(n-1, free)
}

//redsoc:hotpath
func (s *sim) churn() {
	s.head = spin(3, s.free) // want `reaches an allocation through hot\.spin -> pool\.Grab`
}
