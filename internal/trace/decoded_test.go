package trace_test

import (
	"reflect"
	"testing"

	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/trace"
)

// TestDecodeBytesPerInstr pins the decode's footprint: the per-instruction
// columns of Decoded (its slice fields) cost 14 bytes or fewer per dynamic
// instruction. Found by reflection, so a column added later counts.
func TestDecodeBytesPerInstr(t *testing.T) {
	typ := reflect.TypeOf(trace.Decoded{})
	var sum uintptr
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() == reflect.Slice {
			sum += f.Type.Elem().Size()
		}
	}
	if sum > 14 {
		t.Fatalf("Decoded's columns cost %d bytes per instruction, want at most 14", sum)
	}
}

// TestAddrRangeMatchesDecodeFormula: AddrRange gives every instruction of
// the quick, full and extras suites the range the decode used to store in
// its AddrLo/AddrHi columns: the 8-byte word holding Addr for a load or
// store, 16 bytes for one moving a vector register, and [0, 0) for anything
// else. The quick and full suites carry vector accesses; extras has none.
func TestAddrRangeMatchesDecodeFormula(t *testing.T) {
	suites := map[string][]harness.Benchmark{
		"quick":  harness.Benchmarks(harness.Quick),
		"full":   harness.Benchmarks(harness.Full),
		"extras": harness.Extras(),
	}
	var scalar, vector int
	for name, bs := range suites {
		for _, b := range bs {
			d := trace.Decode(b.Prog)
			for i := range b.Prog.Instrs {
				in := &b.Prog.Instrs[i]
				var wantLo, wantHi uint64
				if in.Op == isa.OpLDR || in.Op == isa.OpSTR {
					size := uint64(8)
					if in.Dst.IsVec() || in.Src3.IsVec() {
						size = 16
						vector++
					} else {
						scalar++
					}
					wantLo = in.Addr &^ 7
					wantHi = wantLo + size
				}
				if lo, hi := trace.AddrRange(in.Addr, d.Bits[i]); lo != wantLo || hi != wantHi {
					t.Fatalf("%s %s instr %d (%v): AddrRange = [%#x, %#x), want [%#x, %#x)",
						name, b.Name, i, in, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
	if scalar == 0 || vector == 0 {
		t.Fatalf("%d scalar and %d vector memory ops; the table needs both", scalar, vector)
	}
}
