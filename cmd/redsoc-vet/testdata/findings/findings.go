// Package findings is the seeded-bug fixture: a map iteration whose
// order-dependent fold reaches a Metrics sink through a call boundary, and a
// hot-path function that reaches an allocation through a helper. detflow and
// hotpath must report them — redsoc-vet over this module exits 1, and the CI
// smoke job asserts exactly that, proving the gate can actually fail.
package findings

type Metrics struct{ Cycles int64 }

// tally folds the map in iteration order; the nondeterminism is invisible at
// Fill's call site and only the interprocedural summary carries it there.
func tally(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s = s<<3 + v
	}
	return s
}

// Fill publishes the order-dependent fold into the sink.
func Fill(met *Metrics, counts map[string]int64) {
	met.Cycles = tally(counts)
}

// scratch allocates a fresh buffer on every call; its own body is unmarked.
func scratch(n int) []int64 { return make([]int64, n) }

// Step is marked hot, and its body is allocation-free: the allocation is one
// call away, so only the call-graph walk sees it.
//
//redsoc:hotpath
func Step(n int) int64 {
	return int64(len(scratch(n)))
}
