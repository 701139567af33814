package ooo

// seqRing is a fixed-capacity FIFO of slab indices, used for the ROB, the LSQ
// and the store queue. The previous representation (`s.rob = s.rob[1:]` at
// commit) walked a []*entry backing array forward forever, pinning every
// retired entry until the next append reallocated; the ring retires a slot in
// place, and because it holds int32 indices rather than pointers, pushes are
// barrier-free and the GC never scans it. Capacity is fixed by reset:
// dispatch enforces the ROB/LSQ size bounds before pushing, so overflow is a
// scheduler bug, not a growth condition.
type seqRing struct {
	buf  []int32
	head int // index of the oldest element
	n    int
}

// reset empties the ring and fixes its capacity, reusing the buffer when it
// is large enough. Slots wrap modulo len(buf), so the buffer is sliced to
// exactly capacity, whatever it held before.
func (r *seqRing) reset(capacity int) {
	if cap(r.buf) < capacity {
		r.buf = make([]int32, capacity)
	} else {
		r.buf = r.buf[:capacity]
		clear(r.buf)
	}
	r.head, r.n = 0, 0
}

// len returns the number of queued indices.
func (r *seqRing) len() int { return r.n }

// push appends i at the tail (youngest position).
//
//redsoc:hotpath
func (r *seqRing) push(i int32) {
	if r.n == len(r.buf) {
		panic("ooo: ring overflow; dispatch must bound occupancy before pushing") //lint:allow panicpolicy audited invariant: dispatch stalls at capacity
	}
	r.buf[(r.head+r.n)%len(r.buf)] = i
	r.n++
}

// front returns the oldest index without removing it.
//
//redsoc:hotpath
func (r *seqRing) front() int32 { return r.buf[r.head] }

// popFront removes and returns the oldest index.
//
//redsoc:hotpath
func (r *seqRing) popFront() int32 {
	i := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return i
}

// at returns the i-th oldest index (0 = head). linkMemDep scans the store
// queue youngest→oldest through this.
//
//redsoc:hotpath
func (r *seqRing) at(i int) int32 {
	return r.buf[(r.head+i)%len(r.buf)]
}
