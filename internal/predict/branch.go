package predict

// BranchPredictor is a gshare predictor: a table of 2-bit saturating
// counters indexed by PC xor global history. The core uses it to decide, at
// dispatch, whether a (pre-resolved) trace branch would have redirected the
// front end; mispredicted branches stall dispatch until they resolve, which
// puts branch-feeding dependency chains on the critical path — exactly where
// slack recycling helps.
type BranchPredictor struct {
	counters []uint8
	history  uint64
	histBits uint
	mask     uint64

	lookups uint64
	wrong   uint64
}

// DefaultBranchEntries and DefaultHistoryBits size the predictor like a
// modest gshare (4K × 2-bit counters, 10-bit history).
const (
	DefaultBranchEntries = 4096
	DefaultHistoryBits   = 10
)

// NewBranchPredictor builds a gshare predictor; entries must be a power of
// two.
func NewBranchPredictor(entries int, historyBits uint) *BranchPredictor {
	p := &BranchPredictor{}
	p.Reset(entries, historyBits)
	return p
}

// Reset makes p exactly what NewBranchPredictor(entries, historyBits)
// builds, reusing its table when the capacity allows.
func (p *BranchPredictor) Reset(entries int, historyBits uint) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: branch predictor entries must be a positive power of two") //lint:allow panicpolicy audited invariant: the simulator resets only tables ooo.Config.Validate has sized; New* share the check
	}
	c := resize(p.counters, entries)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	*p = BranchPredictor{
		counters: c,
		histBits: historyBits,
		mask:     uint64(entries - 1),
	}
}

// resize returns a slice of length n, reusing s's storage when it is large
// enough. The contents are unspecified; callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func (p *BranchPredictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ p.history) & p.mask
}

// Predict returns the predicted direction without training (a pure query).
func (p *BranchPredictor) Predict(pc uint64) bool {
	return p.counters[p.index(pc)] >= 2
}

// Update predicts, trains with the actual direction, reports whether the
// prediction was wrong, and shifts the history. This is the per-branch path
// the core uses, so it is what counts as a lookup.
func (p *BranchPredictor) Update(pc uint64, taken bool) (mispredicted bool) {
	p.lookups++
	i := p.index(pc)
	pred := p.counters[i] >= 2
	if pred != taken {
		p.wrong++
		mispredicted = true
	}
	if taken {
		if p.counters[i] < 3 {
			p.counters[i]++
		}
	} else if p.counters[i] > 0 {
		p.counters[i]--
	}
	p.history = (p.history<<1 | b2u(taken)) & (1<<p.histBits - 1)
	return mispredicted
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchStats reports accuracy counters.
type BranchStats struct {
	Lookups, Mispredictions uint64
}

// Stats returns the accumulated counters.
func (p *BranchPredictor) Stats() BranchStats {
	return BranchStats{Lookups: p.lookups, Mispredictions: p.wrong}
}

// MispredictionRate returns mispredictions per branch.
func (s BranchStats) MispredictionRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.Lookups)
}
