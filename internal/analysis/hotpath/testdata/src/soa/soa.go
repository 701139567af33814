// Package soa exercises the lexical hotpath rules over the flat-trace decode
// idioms: hot readers index immutable parallel columns (plain slice loads and
// array-value copies — nothing allocates), while the build side and the
// decode cache's miss path allocate and must stay unmarked or audited.
package soa

import "sync"

type view struct {
	class []uint8
	bits  []uint16
	srcs  [][4]uint8
	nsrc  []uint8
}

// readColumns is the sanctioned hot shape: sequential indexed loads from
// parallel columns, with the array-valued element copied into a stack local.
//
//redsoc:hotpath
func (v *view) readColumns(i int) uint8 {
	srcs := v.srcs[i] // array value: a stack copy, not an allocation
	if v.bits[i]&1 != 0 && v.nsrc[i] > 0 {
		return srcs[0]
	}
	return v.class[i]
}

// aliasColumn: taking the address of a column element is a pointer into the
// warm backing array, not a fresh object.
//
//redsoc:hotpath
func (v *view) aliasColumn(i int) *[4]uint8 { return &v.srcs[i] }

// build is the decode side. Every column is a fresh allocation, so it carries
// no marker: decode runs once per program, off the per-cycle path.
func build(n int) *view {
	return &view{
		class: make([]uint8, n),
		bits:  make([]uint16, n),
		srcs:  make([][4]uint8, n),
		nsrc:  make([]uint8, n),
	}
}

// rebuildPerTick re-derives columns inside a marked function — exactly the
// per-dispatch work the flat decode exists to eliminate.
//
//redsoc:hotpath
func (v *view) rebuildPerTick(n int, s [4]uint8) {
	v.class = make([]uint8, n) // want `calls make, which allocates`
	v.srcs = append(v.srcs, s) // want `appends to a struct field`
}

// cache maps a program key to its shared view. Pointer-shaped keys meeting
// sync.Map's any-typed parameters are the one boxing site on the hit path.
var cache sync.Map

type program struct{ n int }

//redsoc:hotpath
func lookup(p *program) *view {
	if got, ok := cache.Load(p); ok { // want `passes a concrete value where any is expected`
		return got.(*view)
	}
	return nil
}

// lookupAudited is the same hit path under the sanctioned escape: storing a
// pointer into an interface word does not allocate, and the audit records
// why the lexical finding is safe to carry.
//
//redsoc:hotpath
func lookupAudited(p *program) *view {
	got, ok := cache.Load(p) //lint:allow hotpath pointer-shaped key: the interface data word holds the pointer, nothing escapes to the heap
	if !ok {
		return nil
	}
	return got.(*view)
}

// miss is the cache fill: unmarked, because the miss path allocates the
// columns (via build) and publishes the entry.
func miss(p *program) *view {
	v := build(p.n)
	cache.Store(p, v)
	return v
}
