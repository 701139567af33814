package ooo

import (
	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/timing"
)

// DelayHistogram counts a program's dynamic operations by the delay timing
// speculation must meet: each bin holds the Ops whose delay is PS
// picoseconds, for PS in [0, timing.ClockPS]. Only non-zero bins are held,
// in ascending PS order, and a program that counted nothing has a nil
// histogram. Timing speculation picks its overclocked period from it
// (baseline.ChoosePeriod).
type DelayHistogram []DelayBin

// DelayBin is one non-empty bin of a DelayHistogram.
type DelayBin struct {
	PS  int
	Ops int64
}

// DelayProfile returns prog's delay profile. A single-cycle op's actual
// delay follows from its operand values alone, so every run of a program —
// under any policy, on any core — executes the same delays, and the
// profile is counted once, by the architectural interpreter pass that
// builds the program's canonical final state (final.go). It is held on the
// program and shared: read-only.
func DelayProfile(prog *isa.Program) DelayHistogram {
	return isa.Derived(prog, finalKey{}, oracle).delays
}

// delayCounts is the dense per-picosecond counter the interpreter pass
// fills.
type delayCounts [timing.ClockPS + 1]int64

// add counts one executed op with outcome out: a single-cycle op in the bin
// of its actual delay, when that fits the nominal cycle; any other op in
// the bin of its class's limiting pipeline stage, since multi-cycle and
// memory stages bound timing speculation too (they can err on every cycle).
func (d *delayCounts) add(op isa.Op, out alu.Outcome) {
	switch {
	case !op.SingleCycle():
		d[timing.StageDelayPS(op.Class())]++
	case out.DelayPS <= timing.ClockPS:
		d[out.DelayPS]++
	}
}

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
