package ooo

import (
	"redsoc/internal/alu"
	"redsoc/internal/core"
	"redsoc/internal/fault"
	"redsoc/internal/isa"
	"redsoc/internal/mem"
	"redsoc/internal/predict"
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

// Result aggregates everything a run produces.
type Result struct {
	Config Config

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
	// Dynamic-delay policy activity.
	LoadDelayPredicts    int64 // loaddelay: loads issued with a tracked-delay broadcast
	LoadDelayMispredicts int64 // loaddelay: tracked delay differed from the resolved one
	LSQSpecForwards      int64 // speclsq: loads served at LSQ-read latency from a queue entry
	LSQMisallocations    int64 // speclsq: speculative issues squashed (store not yet executed)
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
	DelayHistogram    DelayHistogram // actual delay (ps) of single-cycle ops
	WidthPredictor    predict.WidthStats
	LastArrival       predict.LastArrivalStats
	LoadDelay         predict.LoadDelayStats
	Branches          predict.BranchStats
	MemStats          mem.Stats

	// Architectural outcome. Every successful fault-free run ends in its
	// program's canonical final state, the architectural interpreter's, and
	// shares that state's FinalRegs and FinalMem maps with every other such
	// run and every journaled result (see final.go and FinalState), so both
	// maps are read-only: never write to them. Only a fault-injected run
	// that diverged holds maps of its own.
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

// SpeedupOver returns this run's speedup relative to a baseline run of the
// same program (baseline cycles / these cycles).
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// FUStallRate is Fig. 14's metric: the fraction of cycles in which at least
// one otherwise-ready operation stalled on functional-unit availability.
func (r *Result) FUStallRate() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.FUStallCycles) / float64(r.Cycles)
}

// ArchEqual reports whether two runs produced identical architectural state:
// the invariant that slack recycling must preserve. Two results holding the
// same maps — runs that ended in their program's canonical final state —
// are equal without a compare.
func (r *Result) ArchEqual(o *Result) bool {
	if sameMap(r.FinalRegs, o.FinalRegs) && sameMap(r.FinalMem, o.FinalMem) {
		return r.FinalFlags == o.FinalFlags
	}
	if len(r.FinalRegs) != len(o.FinalRegs) || r.FinalFlags != o.FinalFlags {
		return false
	}
	for reg, v := range r.FinalRegs { //lint:allow simdeterminism order-independent: equality over both maps
		if o.FinalRegs[reg] != v {
			return false
		}
	}
	if len(r.FinalMem) != len(o.FinalMem) {
		return false
	}
	for a, v := range r.FinalMem { //lint:allow simdeterminism order-independent: equality over both maps
		if o.FinalMem[a] != v {
			return false
		}
	}
	return true
}
