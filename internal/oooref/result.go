package oooref

import (
	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/ooo"
	"redsoc/internal/predict"
	"redsoc/internal/timing"
)

// OpMix is the Fig. 10 characterization of a run: the fraction of dynamic
// operations per category.
type OpMix struct {
	MemHL      int64 // loads missing L1
	MemLL      int64 // loads hitting L1 (or forwarded) and stores
	SIMD       int64 // single-cycle SIMD operations
	OtherMulti int64 // MUL/DIV/FP/SIMD-multiply
	ALUHS      int64 // single-cycle ALU ops with > 20% data slack
	ALULS      int64 // remaining single-cycle ALU ops
}

// Total returns the dynamic op count across categories.
func (m OpMix) Total() int64 {
	return m.MemHL + m.MemLL + m.SIMD + m.OtherMulti + m.ALUHS + m.ALULS
}

// Result aggregates everything a run produces. The threshold-controller,
// PVT, fault and degradation fields are outside the reference's scope and
// stay zero; they are kept so its metrics snapshot has the live engine's
// keys.
type Result struct {
	Config ooo.Config

	Cycles       int64
	Instructions int64

	Mix OpMix

	// Slack recycling activity.
	RecycledOps    int64 // ops that began evaluating mid-cycle
	TwoCycleHolds  int64 // recycled ops that held their FU 2 cycles
	GPWakeupGrants int64 // speculative grants that issued usefully
	GPWakeupWasted int64 // speculative grants cancelled (no recycle/parent)
	TagMispredicts int64 // last-arrival validation failures (with penalty)
	WidthReplays   int64 // aggressive width mispredictions replayed
	FusedOps       int64 // MOS: consumer ops executed in their producer's cycle
	FUStallCycles  int64 // cycles where a timing-ready op found no free FU
	IssueCycles    int64 // cycles in which at least one op issued
	// Dispatch-stall breakdown (cycles in which dispatch stopped early for
	// the given reason; a cycle can count at most one reason).
	StallRedirect, StallROB, StallRSE, StallLSQ int64
	// HeadWait accumulates, per op class, the cycles the ROB head spent
	// incomplete while younger work waited behind it (commit-blocking).
	HeadWait map[string]int64
	// ThresholdAdjustments counts dynamic-threshold controller moves;
	// FinalThreshold is the threshold at the end of the run.
	ThresholdAdjustments int64
	FinalThreshold       int
	// PVTRecalibrations counts CPM-driven LUT rescalings (Sec. V).
	PVTRecalibrations int64
	// Fault injection and Razor-style recovery (robustness campaigns).
	TimingViolations  int64 // detections at the consumer or output latch
	ViolationReplays  int64 // selective reissues those detections triggered
	DegradationEvents int64 // degradation-controller trips to baseline timing
	DegradeRearms     int64 // cool-down expiries re-enabling recycling
	DegradedCycles    int64 // cycles with >= 1 FU pool held at baseline timing
	FaultStats        fault.Stats
	Sequences         *core.SeqTracker
	DelayHistogram    [timing.ClockPS + 1]int64 // actual delay (ps) of single-cycle ops
	WidthPredictor    predict.WidthStats
	LastArrival       predict.LastArrivalStats
	Branches          predict.BranchStats
	MemStats          mem.Stats

	// Architectural outcome, for cross-scheduler equivalence checks.
	FinalRegs  map[isa.Reg]alu.Value
	FinalMem   map[uint64]uint64
	FinalFlags alu.Flags
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}
