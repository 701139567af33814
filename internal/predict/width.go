// Package predict implements the two predictors ReDSOC relies on: the
// Loh-style resetting-counter data-width predictor (paper Sec. II-B), which
// supplies width slack estimates at decode, and the last-arriving-operand
// predictor (Sec. IV-C, Operational design), which lets a reservation-station
// entry track a single parent and a single grandparent tag. A small register
// scoreboard validates last-arrival predictions at register read.
package predict

import (
	"redsoc/internal/isa"
)

// WidthPredictor is Loh's resetting counter predictor: each entry stores the
// instruction's most recent data width and a k-bit confidence counter. Below
// full confidence it predicts the maximum width (conservative); at full
// confidence it predicts the stored width. A misprediction resets the
// counter and stores the new width.
type WidthPredictor struct {
	widths     []isa.WidthClass
	confidence []uint8
	confMax    uint8
	mask       uint64

	// Statistics.
	lookups      uint64
	conservative uint64 // correct but wider-than-needed predictions
	aggressive   uint64 // under-predictions (require replay)
	exact        uint64
}

// DefaultWidthEntries is the paper's table size: 4K entries (~1.5 KB state).
const DefaultWidthEntries = 4096

// DefaultConfidenceBits is the k of the k-bit resetting counter.
const DefaultConfidenceBits = 2

// NewWidthPredictor builds a predictor with the given table size (a power of
// two) and confidence-counter width.
func NewWidthPredictor(entries int, confBits int) *WidthPredictor {
	p := &WidthPredictor{}
	p.Reset(entries, confBits)
	return p
}

// Reset makes p exactly what NewWidthPredictor(entries, confBits) builds,
// reusing its tables when the capacity allows.
func (p *WidthPredictor) Reset(entries int, confBits int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: width predictor entries must be a positive power of two") //lint:allow panicpolicy audited invariant: the simulator resets only tables ooo.Config.Validate has sized; New* share the check
	}
	if confBits < 1 || confBits > 7 {
		panic("predict: confidence bits out of range [1,7]") //lint:allow panicpolicy audited invariant: the simulator resets only tables ooo.Config.Validate has sized; New* share the check
	}
	w := resize(p.widths, entries)
	for i := range w {
		w[i] = isa.Width64
	}
	c := resize(p.confidence, entries)
	clear(c)
	*p = WidthPredictor{
		widths:     w,
		confidence: c,
		confMax:    uint8(1<<confBits - 1),
		mask:       uint64(entries - 1),
	}
}

func (p *WidthPredictor) index(pc uint64) uint64 {
	// PCs step by 4; fold the upper bits in to spread hot loops.
	return ((pc >> 2) ^ (pc >> 14)) & p.mask
}

// Predict returns the width class to schedule with. Until the confidence
// counter saturates the prediction is the conservative maximum width.
func (p *WidthPredictor) Predict(pc uint64) isa.WidthClass {
	p.lookups++
	i := p.index(pc)
	if p.confidence[i] < p.confMax {
		return isa.Width64
	}
	return p.widths[i]
}

// Update trains the predictor with the width the execution actually
// exercised and classifies the prior prediction: aggressive (predicted too
// narrow — a correctness violation requiring replay), conservative
// (predicted too wide — lost slack only) or exact.
func (p *WidthPredictor) Update(pc uint64, predicted, actual isa.WidthClass) {
	switch {
	case predicted < actual:
		p.aggressive++
	case predicted > actual:
		p.conservative++
	default:
		p.exact++
	}
	i := p.index(pc)
	if p.widths[i] == actual {
		if p.confidence[i] < p.confMax {
			p.confidence[i]++
		}
		return
	}
	p.widths[i] = actual
	p.confidence[i] = 0
}

// Poison overwrites the table entry for pc with the given width at full
// confidence — the fault-injection hook modeling a corrupted predictor
// entry (e.g. a particle strike in the SRAM array). The next Predict at a
// PC mapping to this entry returns w outright; a later Update at the true
// width resets the entry through the normal training path.
func (p *WidthPredictor) Poison(pc uint64, w isa.WidthClass) {
	i := p.index(pc)
	p.widths[i] = w
	p.confidence[i] = p.confMax
}

// Stats reports lookup and outcome counts.
type WidthStats struct {
	Lookups, Exact, Conservative, Aggressive uint64
}

// Stats returns the accumulated counters.
func (p *WidthPredictor) Stats() WidthStats {
	return WidthStats{
		Lookups:      p.lookups,
		Exact:        p.exact,
		Conservative: p.conservative,
		Aggressive:   p.aggressive,
	}
}

// AggressiveRate returns the fraction of predictions that under-estimated
// width (the paper reports 0.3–0.4% for a 4K-entry table).
func (s WidthStats) AggressiveRate() float64 {
	n := s.Exact + s.Conservative + s.Aggressive
	if n == 0 {
		return 0
	}
	return float64(s.Aggressive) / float64(n)
}

// StateBytes returns the predictor's storage cost: per entry, 2 width bits
// plus the confidence counter.
func (p *WidthPredictor) StateBytes() int {
	bits := len(p.widths) * (2 + confBitsOf(p.confMax))
	return (bits + 7) / 8
}

func confBitsOf(maxVal uint8) int {
	b := 0
	for v := int(maxVal); v > 0; v >>= 1 {
		b++
	}
	return b
}
