package predict

// LastArrivalPredictor predicts which of an instruction's source operands
// arrives last (Ernst & Austin tag elimination, used by the paper's
// Operational RSE design, Sec. IV-C). The table is PC-indexed with one bit
// per entry: whether the *second* source operand (rather than the first) is
// the last to arrive. Single-source operations trivially predict source 0.
type LastArrivalPredictor struct {
	secondLast []bool
	mask       uint64

	lookups uint64
	wrong   uint64
}

// DefaultLastArrivalEntries is the paper's table size (Sec. VI-B): 1K
// entries, 1 bit each.
const DefaultLastArrivalEntries = 1024

// NewLastArrivalPredictor builds a predictor with a power-of-two table size.
func NewLastArrivalPredictor(entries int) *LastArrivalPredictor {
	p := &LastArrivalPredictor{}
	p.Reset(entries)
	return p
}

// Reset makes p exactly what NewLastArrivalPredictor(entries) builds,
// reusing its table when the capacity allows.
func (p *LastArrivalPredictor) Reset(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: last-arrival predictor entries must be a positive power of two") //lint:allow panicpolicy audited invariant: the simulator resets only tables ooo.Config.Validate has sized; New* share the check
	}
	t := resize(p.secondLast, entries)
	clear(t)
	*p = LastArrivalPredictor{
		secondLast: t,
		mask:       uint64(entries - 1),
	}
}

func (p *LastArrivalPredictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ (pc >> 12)) & p.mask
}

// Predict returns the index (0 or 1) of the source operand predicted to
// arrive last.
func (p *LastArrivalPredictor) Predict(pc uint64) int {
	p.lookups++
	if p.secondLast[p.index(pc)] {
		return 1
	}
	return 0
}

// Update trains the predictor with the operand that actually arrived last
// and records whether the earlier prediction was wrong.
func (p *LastArrivalPredictor) Update(pc uint64, predicted, actual int) {
	if predicted != actual {
		p.wrong++
	}
	p.secondLast[p.index(pc)] = actual == 1
}

// Flip inverts the stored last-arrival bit for pc — the fault-injection
// hook modeling a corrupted table entry. Mispredictions it induces are
// caught by the scheduler's register-read validation like any other.
func (p *LastArrivalPredictor) Flip(pc uint64) {
	i := p.index(pc)
	p.secondLast[i] = !p.secondLast[i]
}

// LastArrivalStats reports accuracy counters.
type LastArrivalStats struct {
	Lookups, Mispredictions uint64
}

// Stats returns the accumulated counters.
func (p *LastArrivalPredictor) Stats() LastArrivalStats {
	return LastArrivalStats{Lookups: p.lookups, Mispredictions: p.wrong}
}

// MispredictionRate returns mispredictions per lookup (the paper's Fig. 12
// reports ~1%, growing with core size).
func (s LastArrivalStats) MispredictionRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.Lookups)
}

// Scoreboard is the small register scoreboard that validates last-arrival
// predictions (Sec. IV-C): a prediction is correct iff the operand predicted
// to NOT arrive last is already available when the instruction reaches
// register read. It tracks readiness of renamed registers by tag.
type Scoreboard struct {
	ready []bool
}

// NewScoreboard sizes the scoreboard for the given number of in-flight tags.
func NewScoreboard(tags int) *Scoreboard {
	return &Scoreboard{ready: make([]bool, tags)}
}

// Reset clears all readiness bits.
func (s *Scoreboard) Reset() {
	for i := range s.ready {
		s.ready[i] = false
	}
}

// SetReady marks a tag's value as produced.
func (s *Scoreboard) SetReady(tag int) { s.ready[tag] = true }

// Clear marks a tag as in flight (allocated to a new instruction).
func (s *Scoreboard) Clear(tag int) { s.ready[tag] = false }

// Ready reports whether the tag's value is available.
func (s *Scoreboard) Ready(tag int) bool { return s.ready[tag] }
