package ooo

import "redsoc/internal/timing"

// DelayHistogram counts a run's single-cycle ops by actual delay: each bin
// holds the Ops that settled in PS picoseconds, for PS in [0,
// timing.ClockPS]. Only non-zero bins are held, in ascending PS order, and
// a run that counted nothing has a nil histogram. Timing speculation picks
// its overclocked period from it (baseline.ChoosePeriod). A real run fills
// about a dozen of the 501 possible bins, so the engine counts into a dense
// array in its recycled storage (arena.go) and keeps only this compact form
// in the Result; the cell journal writes the same bins (see the payload
// layout in internal/harness).
type DelayHistogram []DelayBin

// DelayBin is one non-empty bin of a DelayHistogram.
type DelayBin struct {
	PS  int
	Ops int64
}

// delayCounts is the dense per-picosecond counter a run fills.
type delayCounts [timing.ClockPS + 1]int64

// histogram returns the non-zero bins of d in ascending order, nil when
// there are none.
func (d *delayCounts) histogram() DelayHistogram {
	n := 0
	for _, c := range d {
		if c != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	h := make(DelayHistogram, 0, n)
	for ps, c := range d {
		if c != 0 {
			h = append(h, DelayBin{PS: ps, Ops: c})
		}
	}
	return h
}
