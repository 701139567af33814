package timing

import (
	"fmt"

	"redsoc/internal/isa"
)

// The delay model reproduces the structure of the paper's Fig. 1 (per-opcode
// computation times on a single-cycle ARM-style ALU synthesized at 2 GHz on
// TSMC 45 nm) and Fig. 2 (Kogge–Stone carry-path length growing with the
// effective operand width). Absolute picosecond values are calibrated, not
// copied: what the scheduler consumes is only the 14-bucket classification,
// and what the evaluation depends on is the relative delay structure —
// logic < shift < arith < shifted-arith, and arith growing ~log2(width).

const (
	// adderFixedPS covers operand muxing, the P/G preprocessing level, the
	// sum XOR stage and flag generation of the adder datapath.
	adderFixedPS = 40
	// adderStagePS is the delay of one Kogge–Stone prefix level.
	adderStagePS = 60
	// shifterPS is the barrel shifter stage feeding the adder on the
	// flexible-second-operand (shifted-arithmetic) path.
	shifterPS = 70
	// simdOverheadPS covers the SIMD port muxing and lane-segmentation logic
	// relative to the scalar adder of the same element width.
	simdOverheadPS = 40
)

// prefixLevels returns the number of Kogge–Stone prefix levels a carry chain
// of the given width needs: ceil(log2(w)).
func prefixLevels(w int) int {
	n := 0
	for 1<<n < w {
		n++
	}
	return n
}

// AdderDelayPS models the critical-path delay of the carry chain when only
// the low effWidth bits are active (Fig. 2: longer effective widths activate
// longer prefix paths).
func AdderDelayPS(effWidth int) int {
	if effWidth < 1 {
		effWidth = 1
	}
	if effWidth > 64 {
		effWidth = 64
	}
	return adderFixedPS + adderStagePS*prefixLevels(effWidth)
}

// opOffsetPS is the opcode-specific delay added on top of the class base:
// carry-in muxing for ADC/SBC/RSC, operand inversion for subtracts, the
// individual gate mixes of the logic ops. Values are small and keep the
// left-to-right shape of Fig. 1.
// The table is authored as a map for readability and flattened into a dense
// per-opcode array at init: OpDelayPS sits on the estimator's per-issue path,
// where a map lookup was a measurable fraction of simulation time.
var opOffsetPS [isa.NumOps]int

func init() {
	for op, off := range opOffsetTablePS {
		opOffsetPS[op] = off
	}
}

var opOffsetTablePS = map[isa.Op]int{
	isa.OpBIC: 30, isa.OpMVN: 10, isa.OpAND: 20, isa.OpEOR: 25,
	isa.OpTST: 20, isa.OpTEQ: 25, isa.OpORR: 20, isa.OpMOV: 0,
	isa.OpLSR: 15, isa.OpASR: 20, isa.OpLSL: 15, isa.OpROR: 25, isa.OpRRX: 5,
	isa.OpRSB: 15, isa.OpRSC: 30, isa.OpSUB: 10, isa.OpCMP: 5,
	isa.OpADD: 0, isa.OpCMN: 5, isa.OpADC: 15, isa.OpSBC: 25,
	isa.OpADDLSR: 0, isa.OpSUBROR: 10,
	isa.OpVADD: 0, isa.OpVSUB: 10, isa.OpVAND: 0, isa.OpVORR: 0,
	isa.OpVEOR: 5, isa.OpVMAX: 15, isa.OpVMIN: 15, isa.OpVSHL: 5,
	isa.OpVSHR: 5, isa.OpVMOV: 0,
}

const (
	logicBasePS = 175 // MOV: operand mux + result mux only
	shiftBasePS = 230 // full barrel shifter
)

// OpDelayPS returns the modeled computation time, in picoseconds, of a
// single-cycle ALU or SIMD operation with the given effective width class.
// Logic and shift delays are width-independent (bit-parallel datapaths);
// arithmetic delays follow the carry chain; SIMD delays follow the per-lane
// carry chain plus lane-segmentation overhead (type slack). Multi-cycle
// classes return ClockPS (they are "true synchronous" and expose no slack).
func OpDelayPS(op isa.Op, w isa.WidthClass) int {
	off := opOffsetPS[op]
	switch op.Class() {
	case isa.ClassLogic:
		return logicBasePS + off
	case isa.ClassShift:
		return shiftBasePS + off
	case isa.ClassArith:
		return AdderDelayPS(w.Bits()) + off
	case isa.ClassShiftArith:
		return shifterPS + AdderDelayPS(w.Bits()) + off
	case isa.ClassSIMD:
		if op == isa.OpVAND || op == isa.OpVORR || op == isa.OpVEOR || op == isa.OpVMOV {
			return simdOverheadPS + logicBasePS + off
		}
		if op == isa.OpVSHL || op == isa.OpVSHR {
			return simdOverheadPS + shiftBasePS + off
		}
		return simdOverheadPS + AdderDelayPS(w.Bits()) + off
	case isa.ClassBranch:
		return AdderDelayPS(32) // condition evaluate + target compare
	}
	return ClockPS
}

// CriticalPathPS is the slowest modeled single-cycle computation: it must fit
// inside the clock period, which is how a timing-conservative unit is timed.
func CriticalPathPS() int {
	worst := 0
	for _, op := range isa.ALUOps() {
		if d := OpDelayPS(op, isa.Width64); d > worst {
			worst = d
		}
	}
	return worst
}

// StageDelayPS returns the limiting per-stage circuit delay for operations
// that are not single-cycle ALU computations: the pipeline stages of the
// multipliers, FP units and cache access path are tuned close to the clock
// and expose mostly PVT (not data) slack. The timing-speculation comparator
// is bounded by these stages — every synchronous EU/op-stage can produce a
// timing error (Sec. I) — so they enter a program's delay profile
// (ooo.DelayProfile) alongside the data-dependent ALU delays.
func StageDelayPS(class isa.Class) int {
	switch class {
	case isa.ClassMul, isa.ClassSIMDMul:
		return 490
	case isa.ClassDiv:
		return 495
	case isa.ClassFP:
		return 485
	case isa.ClassLoad, isa.ClassStore:
		return 480
	}
	return ClockPS
}

// MultiCycleLatency returns the baseline latency, in whole cycles, of the
// non-single-cycle classes (Table I cores share these).
func MultiCycleLatency(class isa.Class) int {
	switch class {
	case isa.ClassMul:
		return 3
	case isa.ClassDiv:
		return 12
	case isa.ClassFP:
		return 4
	case isa.ClassSIMDMul:
		return 3
	}
	return 1
}

func init() {
	if cp := CriticalPathPS(); cp > ClockPS {
		panic(fmt.Sprintf("timing: critical path %d ps exceeds the %d ps clock", cp, ClockPS))
	}
}
