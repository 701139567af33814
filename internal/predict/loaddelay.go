package predict

// LoadDelayTracker is the real-time load-delay table behind the `loaddelay`
// scheduling policy (Diavastos & Carlson): a PC-indexed, direct-mapped record
// of the delay each static load most recently exhibited, fed by the cache
// hierarchy as loads resolve. The scheduler broadcasts a completion instant
// built from the tracked delay instead of a static worst-case latency;
// consumers that issue against an under-tracked delay are caught by the
// ordinary Razor-style operand detectors and selectively reissued, so the
// tracker can never corrupt architectural state — only move timing.
type LoadDelayTracker struct {
	// delays holds the last observed latency per entry, in cycles; 0 marks a
	// cold entry (real latencies are >= 1).
	delays []int32
	mask   uint64

	lookups uint64
	wrong   uint64
}

// DefaultLoadDelayEntries sizes the tracker: 512 entries × ~7 bits of
// latency is well under the last-arrival table's budget.
const DefaultLoadDelayEntries = 512

// NewLoadDelayTracker builds a tracker with a power-of-two table size.
func NewLoadDelayTracker(entries int) *LoadDelayTracker {
	t := &LoadDelayTracker{}
	t.Reset(entries)
	return t
}

// Reset makes t exactly what NewLoadDelayTracker(entries) builds, reusing
// its table when the capacity allows.
func (t *LoadDelayTracker) Reset(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: load-delay tracker entries must be a positive power of two") //lint:allow panicpolicy audited invariant: the simulator resets only tables ooo.Config.Validate has sized; New* share the check
	}
	d := resize(t.delays, entries)
	clear(d)
	*t = LoadDelayTracker{
		delays: d,
		mask:   uint64(entries - 1),
	}
}

func (t *LoadDelayTracker) index(pc uint64) uint64 {
	return ((pc >> 2) ^ (pc >> 11)) & t.mask
}

// Predict returns the delay (cycles) tracked for the load at pc, or cold for
// a load this entry has not observed yet. Callers pass the optimistic common
// case (an L1 hit) as cold — a wrong first guess is recovered like any other
// under-tracked delay.
//
//redsoc:hotpath
func (t *LoadDelayTracker) Predict(pc uint64, cold int) int {
	t.lookups++
	if d := t.delays[t.index(pc)]; d > 0 {
		return int(d)
	}
	return cold
}

// Update records the load's observed delay and scores the prior prediction.
//
//redsoc:hotpath
func (t *LoadDelayTracker) Update(pc uint64, predicted, actual int) {
	if predicted != actual {
		t.wrong++
	}
	t.delays[t.index(pc)] = int32(actual)
}

// LoadDelayStats reports accuracy counters.
type LoadDelayStats struct {
	Lookups, Mispredictions uint64
}

// Stats returns the accumulated counters.
func (t *LoadDelayTracker) Stats() LoadDelayStats {
	return LoadDelayStats{Lookups: t.lookups, Mispredictions: t.wrong}
}

// HitRate returns the fraction of lookups whose tracked delay matched the
// observed one.
func (s LoadDelayStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Lookups-s.Mispredictions) / float64(s.Lookups)
}
