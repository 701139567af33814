package trace

import (
	"testing"

	"redsoc/internal/isa"
)

// TestDecodeCachedEvictsOldestBeyondBound is the regression test for the
// cache-full bug: the cache used to refuse all insertions once
// maxCachedPrograms distinct programs had been seen, so a long-running serve
// process re-decoded every later workload forever. With bounded eviction the
// (max+1)th program must be served from cache on its second use and the
// oldest program gives up its slot.
func TestDecodeCachedEvictsOldestBeyondBound(t *testing.T) {
	progs := make([]*isa.Program, maxCachedPrograms+1)
	for i := range progs {
		progs[i] = &isa.Program{Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1)}}}
	}
	first := make([]*Decoded, len(progs))
	for i, p := range progs {
		first[i] = DecodeCached(p)
	}
	last := progs[len(progs)-1]
	if got := DecodeCached(last); got != first[len(progs)-1] {
		t.Fatal("the program inserted beyond the bound must be served from cache on its second use")
	}
	// Recently inserted programs kept their slots too.
	if got := DecodeCached(progs[maxCachedPrograms/2]); got != first[maxCachedPrograms/2] {
		t.Fatal("a mid-age cached program lost its slot without the cache being full")
	}
	// maxCachedPrograms+1 fresh insertions fill the FIFO with exactly our
	// last maxCachedPrograms programs, whatever earlier tests cached — so
	// the oldest of ours is deterministically the evictee. (The bound
	// itself is pinned by the memo package's tests.)
	if got := DecodeCached(progs[0]); got == first[0] {
		t.Fatal("re-decoding the evictee must build a fresh view")
	}
}

func TestSortU64(t *testing.T) {
	a := []uint64{5, 1, 9, 3, 3, 0, 1 << 60}
	sortU64(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("unsorted: %v", a)
		}
	}
}
