package core

// SeqTracker accumulates the lengths of transparent sequences: maximal chains
// of operations in which each operation after the first began evaluating
// mid-cycle off its producer's transparent bypass. Fig. 11 reports the
// expected (length-weighted) sequence length, which lands at 4–6 operations
// in the paper.
type SeqTracker struct {
	hist map[int]uint64
}

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{hist: make(map[int]uint64)}
}

// SeqTrackerOf returns a tracker that adopts hist (length to count, as
// Histogram returns it), or an empty one for a nil hist: the inverse of
// Histogram, for a journal that stores a tracker's counts.
func SeqTrackerOf(hist map[int]uint64) *SeqTracker {
	if hist == nil {
		return NewSeqTracker()
	}
	return &SeqTracker{hist: hist}
}

// Record logs one maximal transparent sequence of the given length (in
// operations, including the boundary-clocked head). Lengths below 2 are not
// transparent sequences and are ignored.
func (t *SeqTracker) Record(length int) {
	if length < 2 {
		return
	}
	t.hist[length]++
}

// Count returns the number of recorded sequences.
func (t *SeqTracker) Count() uint64 {
	var n uint64
	for _, c := range t.hist { //lint:allow simdeterminism order-independent: commutative sum
		n += c
	}
	return n
}

// MeanLength is the plain average sequence length.
func (t *SeqTracker) MeanLength() float64 {
	var n, sum uint64
	for l, c := range t.hist { //lint:allow simdeterminism order-independent: commutative sums
		n += c
		sum += uint64(l) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ExpectedLength is the length-weighted mean: the expected sequence length
// seen by a randomly chosen *operation* inside a transparent sequence. This
// is Fig. 11's "EV of transparent sequence length".
func (t *SeqTracker) ExpectedLength() float64 {
	var sum, sqSum uint64
	for l, c := range t.hist { //lint:allow simdeterminism order-independent: commutative sums
		sum += uint64(l) * c
		sqSum += uint64(l) * uint64(l) * c
	}
	if sum == 0 {
		return 0
	}
	return float64(sqSum) / float64(sum)
}

// Histogram returns a copy of the length histogram.
func (t *SeqTracker) Histogram() map[int]uint64 {
	out := make(map[int]uint64, len(t.hist))
	for l, c := range t.hist { //lint:allow simdeterminism order-independent: map copy
		out[l] = c
	}
	return out
}

// Merge folds another tracker's counts into this one.
func (t *SeqTracker) Merge(other *SeqTracker) {
	for l, c := range other.hist { //lint:allow simdeterminism order-independent: commutative merge
		t.hist[l] += c
	}
}
