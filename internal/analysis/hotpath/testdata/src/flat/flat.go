// Package flat is the decode-side half of the SoA fixtures: a column view is
// read-only after Decode builds it, and the cache's miss path is the one
// allocation standing between a marked tick and the shared view. None of the
// allocating functions carry the hotpath marker — findings against them must
// arrive transitively, from a marked caller in package tick.
package flat

type View struct {
	Class []uint8
	Bits  []uint16
}

// Len is itself marked: transitive walks from marked callers prune here, and
// its (allocation-free) body is covered by the lexical body scan.
//
//redsoc:hotpath
func (v *View) Len() int { return len(v.Bits) }

// Decode allocates every column; it runs once per program.
func Decode(n int) *View {
	return &View{Class: make([]uint8, n), Bits: make([]uint16, n)}
}

var cache = map[int]*View{}

// Cached returns the shared view for n, decoding on a miss. Its own body is
// allocation-free — the reachable allocation lives one hop down, in Decode.
func Cached(n int) *View {
	if v, ok := cache[n]; ok {
		return v
	}
	v := Decode(n)
	cache[n] = v
	return v
}
