package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/trace"
	"redsoc/internal/workload/mibench"
	"redsoc/internal/workload/ml"
)

func roundTrip(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripKernel(t *testing.T) {
	p, exp := mibench.CRC(200, 5)
	got := roundTrip(t, p)
	if got.Name != p.Name || len(got.Instrs) != len(p.Instrs) {
		t.Fatalf("shape mismatch: %q/%d vs %q/%d", got.Name, len(got.Instrs), p.Name, len(p.Instrs))
	}
	for i := range p.Instrs {
		if got.Instrs[i] != p.Instrs[i] {
			t.Fatalf("instr %d differs:\n got %+v\nwant %+v", i, got.Instrs[i], p.Instrs[i])
		}
	}
	if len(got.Mem) != len(p.Mem) {
		t.Fatalf("mem image %d vs %d entries", len(got.Mem), len(p.Mem))
	}
	for a, v := range p.Mem {
		if got.Mem[a] != v {
			t.Fatalf("mem[%#x] = %#x, want %#x", a, got.Mem[a], v)
		}
	}
	// The deserialized trace must simulate identically.
	r1, err := ooo.Run(ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc), p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ooo.Run(ooo.SmallConfig().WithPolicy(ooo.PolicyRedsoc), got)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || !r1.ArchEqual(r2) {
		t.Fatal("deserialized trace simulates differently")
	}
	for addr, want := range exp.Mem {
		if r2.FinalMem[addr] != want {
			t.Fatal("deserialized run lost correctness")
		}
	}
}

func TestRoundTripAllFieldKinds(t *testing.T) {
	p := &isa.Program{
		Name: "fields",
		Mem:  map[uint64]uint64{0x10: 7, 0xFFFF_FFFF_0000: 1 << 60},
		Instrs: []isa.Instruction{
			{Op: isa.OpADD, Dst: isa.R(1), Src1: isa.R(2), Imm: 1 << 40, PC: 0x1000},
			{Op: isa.OpVMLA, Lane: isa.Lane16, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(3), Src3: isa.V(1), PC: 0x990},
			{Op: isa.OpLDR, Dst: isa.R(3), Src1: isa.R(4), Addr: 0xDEAD_BEE8, PC: 0x1000},
			{Op: isa.OpB, Src1: isa.Flags, Taken: true, PC: 0x4},
			{Op: isa.OpSUB, Dst: isa.R(1), Src1: isa.R(1), Imm: 3, SetFlags: true, PC: 0x8},
			{Op: isa.OpLSR, Dst: isa.R(2), Src1: isa.R(1), ShiftAmt: 9, PC: 0xC},
		},
	}
	got := roundTrip(t, p)
	for i := range p.Instrs {
		if got.Instrs[i] != p.Instrs[i] {
			t.Fatalf("instr %d: got %+v want %+v", i, got.Instrs[i], p.Instrs[i])
		}
	}
}

func TestCompactness(t *testing.T) {
	p, _ := mibench.Bitcount(400, 1)
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(buf.Len()) / float64(len(p.Instrs))
	if perInstr > 16 {
		t.Fatalf("%.1f bytes per instruction; format regressed", perInstr)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := trace.Read(strings.NewReader("RDSC\x07")); err == nil {
		t.Fatal("bad version must fail")
	}
	var buf bytes.Buffer
	p := &isa.Program{Name: "x", Instrs: []isa.Instruction{{Op: isa.OpADD, Dst: isa.R(1)}}}
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := trace.Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream must fail")
	}
}

// header returns a trace prefix: magic, version and a name length field.
func header(nameLen uint64) []byte {
	return binary.AppendUvarint([]byte("RDSC\x01"), nameLen)
}

// TestReadRejectsOversizedLengths: a length field Read has not checked
// against its input sizes no allocation. A 14-byte file claiming a 2^62-byte
// name, and a well-formed header claiming 2^62 instructions with none
// following, are errors, not panics or an exhausted heap.
func TestReadRejectsOversizedLengths(t *testing.T) {
	name := header(1 << 62)
	if len(name) != 14 {
		t.Fatalf("premise: the name header is %d bytes, want 14", len(name))
	}
	instrs := binary.AppendUvarint(binary.AppendUvarint(append(header(1), 'x'), 0), 1<<62)
	mem := binary.AppendUvarint(append(header(1), 'x'), 1<<62)
	for what, in := range map[string][]byte{"name": name, "instruction count": instrs, "memory count": mem} {
		if _, err := trace.Read(bytes.NewReader(in)); err == nil {
			t.Errorf("%s 2^62: Read accepted %d bytes", what, len(in))
		}
	}
	long := &isa.Program{Name: strings.Repeat("x", 1<<13)}
	if err := trace.Write(io.Discard, long); err == nil {
		t.Error("Write accepted a name Read refuses")
	}
}

// FuzzRead: Read returns an error or a program, never panics, on any input,
// and a program it returns survives a Write/Read round trip unchanged.
//
//	go test -run '^$' -fuzz FuzzRead -fuzztime 20s ./internal/trace
func FuzzRead(f *testing.F) {
	crc, _ := mibench.CRC(24, 1)
	bit, _ := mibench.Bitcount(6, 2)
	act, _ := ml.Act(4, 3)
	for _, p := range []*isa.Program{crc, bit, act} {
		var buf bytes.Buffer
		if err := trace.Write(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add(header(1 << 62))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(append(header(1), 'x'), 0), 1<<62))
	f.Add(binary.AppendUvarint(append(header(1), 'x'), 1<<62))
	f.Add([]byte("RDSC\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, p); err != nil {
			t.Fatalf("Write of a program Read accepted: %v", err)
		}
		q, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v", err)
		}
		if q.Name != p.Name || !slices.Equal(q.Instrs, p.Instrs) || !maps.Equal(q.Mem, p.Mem) {
			t.Fatal("a Write/Read round trip changed the program")
		}
	})
}
