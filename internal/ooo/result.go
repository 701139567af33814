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

// Result aggregates everything a run produces. Its JSON form is the cell
// journal's head: the config and the architectural state are left out (the
// journal names the one and stores the other in binary), and so is every
// zero counter.
type Result struct {
	Config Config `json:"-"`

	Cycles       int64 `json:",omitempty"`
	Instructions int64 `json:",omitempty"`

	Mix OpMix

	// Slack recycling activity.
	RecycledOps    int64 `json:",omitempty"` // ops that began evaluating mid-cycle
	TwoCycleHolds  int64 `json:",omitempty"` // recycled ops that held their FU 2 cycles
	GPWakeupGrants int64 `json:",omitempty"` // speculative grants that issued usefully
	GPWakeupWasted int64 `json:",omitempty"` // speculative grants cancelled (no recycle/parent)
	TagMispredicts int64 `json:",omitempty"` // last-arrival validation failures (with penalty)
	WidthReplays   int64 `json:",omitempty"` // aggressive width mispredictions replayed
	FusedOps       int64 `json:",omitempty"` // MOS: consumer ops executed in their producer's cycle
	FUStallCycles  int64 `json:",omitempty"` // cycles where a timing-ready op found no free FU
	IssueCycles    int64 `json:",omitempty"` // cycles in which at least one op issued
	// Dynamic-delay policy activity.
	LoadDelayPredicts    int64 `json:",omitempty"` // loaddelay: loads issued with a tracked-delay broadcast
	LoadDelayMispredicts int64 `json:",omitempty"` // loaddelay: tracked delay differed from the resolved one
	LSQSpecForwards      int64 `json:",omitempty"` // speclsq: loads served at LSQ-read latency from a queue entry
	LSQMisallocations    int64 `json:",omitempty"` // speclsq: speculative issues squashed (store not yet executed)
	// Dispatch-stall breakdown (cycles in which dispatch stopped early for
	// the given reason; a cycle can count at most one reason).
	StallRedirect, StallROB, StallRSE, StallLSQ int64 `json:",omitempty"`
	// HeadWait accumulates, per op class, the cycles the ROB head spent
	// incomplete while younger work waited behind it (commit-blocking).
	HeadWait map[string]int64
	// ThresholdAdjustments counts dynamic-threshold controller moves;
	// FinalThreshold is the threshold at the end of the run.
	ThresholdAdjustments int64 `json:",omitempty"`
	FinalThreshold       int   `json:",omitempty"`
	// PVTRecalibrations counts CPM-driven LUT rescalings (Sec. V).
	PVTRecalibrations int64 `json:",omitempty"`
	// Fault injection and Razor-style recovery (robustness campaigns).
	TimingViolations  int64 `json:",omitempty"` // detections at the consumer or output latch
	ViolationReplays  int64 `json:",omitempty"` // selective reissues those detections triggered
	DegradationEvents int64 `json:",omitempty"` // degradation-controller trips to baseline timing
	DegradeRearms     int64 `json:",omitempty"` // cool-down expiries re-enabling recycling
	DegradedCycles    int64 `json:",omitempty"` // cycles with >= 1 FU pool held at baseline timing
	FaultStats        fault.Stats
	Sequences         *core.SeqTracker
	DelayHistogram    DelayHistogram // actual delay (ps) of single-cycle ops
	WidthPredictor    predict.WidthStats
	LastArrival       predict.LastArrivalStats
	LoadDelay         predict.LoadDelayStats
	Branches          predict.BranchStats
	MemStats          mem.Stats

	// Architectural outcome, for cross-scheduler equivalence checks. A run
	// that ends in its program's canonical final state shares that state's
	// FinalRegs and FinalMem maps with every other such run (see final.go),
	// so both maps are read-only: never write to them.
	FinalRegs  map[isa.Reg]alu.Value `json:"-"`
	FinalMem   map[uint64]uint64     `json:"-"`
	FinalFlags alu.Flags             `json:"-"`
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
