package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"redsoc/internal/alu"
	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/isa"
	"redsoc/internal/memo"
	"redsoc/internal/ooo"
)

// Journaling: every unit of grid work — a Phase B cell (six scheduler runs
// compared and verified) and a Phase A sweep total (one class × core ×
// threshold-candidate speedup sum) — is content-addressed in the cell
// journal by a canonical fingerprint of everything that determines its
// outcome: the full core configuration, a digest of the workload (name,
// dynamic instruction stream, initial memory image and reference results),
// the policy set, and the slack threshold. The journaled value is the
// complete serialized outcome (for a cell, all of its ooo.Results), so a
// resumed cell is indistinguishable from a fresh one to every downstream
// consumer — report, figures, markdown, metrics — and the determinism gates
// make that an exact, not approximate, equivalence.

// cellPayloadVersion versions the harness's journaled encodings on top of
// cellstore.SchemaVersion; it participates in the fingerprint, so bumping
// it orphans (rather than misreads) old entries. Version 2 added the
// dynamic-delay policies (loaddelay, speclsq) to every cell; version 3
// stores the five results' shared architectural state once (archState);
// version 4 moves that state out of the JSON into a binary section and
// writes each delay histogram sparsely (ooo.DelayHistogram).
const cellPayloadVersion = 4

// journaledCell is the JSON head of one grid cell's payload. The five
// ooo.Results in Cmp are written with their architectural fields empty; the
// binary section after the head holds that state once for all of them.
type journaledCell struct {
	Version   int                  `json:"version"`
	Threshold int                  `json:"threshold_ticks"`
	Cmp       *baseline.Comparison `json:"comparison"`
}

// archState is the final architectural state every scheduler of a cell
// committed. baseline.Compare fails a cell whose schedulers
// disagree (ArchEqual), so one copy describes all five results exactly;
// encodeCell re-checks that before dropping the other four.
type archState struct {
	Regs  map[isa.Reg]alu.Value
	Mem   map[uint64]uint64
	Flags alu.Flags
}

// journaledTotal is the serialized outcome of one sweep task.
type journaledTotal struct {
	Version int     `json:"version"`
	Total   float64 `json:"total_speedup"`
}

// benchmarkDigest canonically fingerprints a workload: the program identity
// (every dynamic instruction, the initial memory image, via programDigest)
// plus the benchmark's class, name and verification data, which participate
// in the cell outcome (a cell that fails verification journals nothing).
// Only the program part is memoised, so a benchmark that reuses a program
// under another name or reference result still gets its own digest.
func benchmarkDigest(b Benchmark) []byte {
	return cellstore.DigestJSON(struct {
		Class   Class
		Name    string
		Prog    []byte
		WantMem map[uint64]uint64
	}{b.Class, b.Name, programDigest(b.Prog), b.WantMem})
}

// maxDigestedPrograms bounds programDigests, like trace.DecodeCached's
// cache: a long-running serve process digests a fixed suite per scale, but
// fuzzers and tests mint programs without limit.
const maxDigestedPrograms = 128

// programDigests memoises the canonical digest of each program. Programs
// are immutable once built (the assumption trace.DecodeCached shares), so a
// program pointer always names the same content; the digest itself is
// content-derived, so two builds of one suite still produce equal keys.
var programDigests = memo.New[*isa.Program, []byte](maxDigestedPrograms)

// programDigest returns the shared, read-only digest of p's contents,
// hashing each program once per process rather than once per grid run.
func programDigest(p *isa.Program) []byte {
	return programDigests.Get(p, func(p *isa.Program) []byte { return cellstore.DigestJSON(p) })
}

// WorkloadDigests precomputes a journaled campaign's workload digests
// keyed by program pointer — a program appears in many units (one grid
// cell per core and every sweep task of its class, or every chaos cell of
// its benchmark), and each lookup then costs a map read. The grid and the
// chaos campaign both key their journaled units with it.
func WorkloadDigests(benchmarks []Benchmark) map[*isa.Program][]byte {
	out := make(map[*isa.Program][]byte, len(benchmarks))
	for _, b := range benchmarks {
		out[b.Prog] = benchmarkDigest(b)
	}
	return out
}

// cellKey fingerprints one Phase B grid cell: the full core configuration,
// the workload digest, the policy set the cell compares, and the threshold
// the sweep chose.
func cellKey(cfg ooo.Config, digest []byte, threshold int) cellstore.Key {
	return cellstore.NewFingerprint("grid-cell").
		Field("payload-version", cellPayloadVersion).
		Field("core", cfg).
		Bytes("workload", digest).
		Field("policies", []string{"baseline", "redsoc", "mos", "loaddelay", "speclsq", "ts"}).
		Field("threshold", threshold).
		Key()
}

// sweepKey fingerprints one Phase A sweep task: the core, the ordered
// workload digests of the class, and the candidate threshold.
func sweepKey(cfg ooo.Config, class Class, digests [][]byte, candidate int) cellstore.Key {
	f := cellstore.NewFingerprint("sweep-total").
		Field("payload-version", cellPayloadVersion).
		Field("core", cfg).
		Field("class", class).
		Field("candidate", candidate)
	for i, d := range digests {
		f.Bytes(fmt.Sprintf("workload-%d", i), d)
	}
	return f.Key()
}

// encodeCell serializes a completed cell for the journal: the JSON head
// (journaledCell), one newline — which json.Marshal never emits — and the
// binary architectural-state section (appendArch). Both parts are
// canonical (encoding/json writes struct fields in declaration order, map
// keys sorted and shortest-round-trip floats; the section is sorted), so
// identical cells produce identical bytes. The architectural state is
// written once (see archState); a cell whose five results do not hold
// exactly the same state is refused, so it is simulated again rather than
// journaled lossily.
func encodeCell(c Cell) ([]byte, error) {
	cmp := *c.Cmp
	base := cmp.Baseline
	arch := archState{Regs: base.FinalRegs, Mem: base.FinalMem, Flags: base.FinalFlags}
	for _, res := range cmp.Engines() {
		r := **res
		if !maps.Equal(r.FinalRegs, arch.Regs) || !maps.Equal(r.FinalMem, arch.Mem) || r.FinalFlags != arch.Flags {
			return nil, fmt.Errorf("harness: cell %s/%s: %s architectural state differs from baseline", cmp.Benchmark, cmp.Core, r.Config.Policy)
		}
		r.FinalRegs, r.FinalMem, r.FinalFlags = nil, nil, alu.Flags{}
		*res = &r
	}
	head, err := json.Marshal(journaledCell{Version: cellPayloadVersion, Threshold: c.Threshold, Cmp: &cmp})
	if err != nil {
		return nil, err
	}
	return appendArch(append(head, '\n'), arch), nil
}

// decodeCell rebuilds a Cell from its journaled payload, handing the one
// stored architectural state to all five results (they share its maps;
// everything downstream only reads them). Any shape problem is an error,
// which the caller treats as a cache miss.
func decodeCell(data []byte, b Benchmark, core string) (Cell, error) {
	head, section, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return Cell{}, fmt.Errorf("harness: journaled cell has no architectural-state section")
	}
	var v journaledCell
	if err := json.Unmarshal(head, &v); err != nil {
		return Cell{}, err
	}
	if v.Version != cellPayloadVersion {
		return Cell{}, fmt.Errorf("harness: journaled cell version %d, want %d", v.Version, cellPayloadVersion)
	}
	if v.Cmp == nil {
		return Cell{}, fmt.Errorf("harness: journaled cell is incomplete")
	}
	arch, err := decodeArch(section)
	if err != nil {
		return Cell{}, err
	}
	for _, res := range v.Cmp.Engines() {
		r := *res
		if r == nil {
			return Cell{}, fmt.Errorf("harness: journaled cell is incomplete")
		}
		r.FinalRegs, r.FinalMem, r.FinalFlags = arch.Regs, arch.Mem, arch.Flags
	}
	return Cell{Benchmark: b, Core: core, Threshold: v.Threshold, Cmp: v.Cmp}, nil
}

// The architectural-state section is a sequence of encoding/binary
// uvarints and raw bytes:
//
//	register count, then per register in ascending order: reg byte, Lo, Hi
//	one NZCV flags byte (alu.Flags.Pack, so at most 15)
//	memory-word count, then per word in ascending address order:
//	    address delta (from 0 for the first word), value
//
// It is binary because a cell's memory image is thousands of words: as a
// JSON object each word needs a quoted decimal key, a string parse and a
// reflected map insert, and here it is two varints. It is canonical:
// decodeArch accepts only what appendArch writes — minimal varints,
// strictly ascending registers and addresses, no trailing bytes — so a
// section that decodes re-encodes to the same bytes.

// appendArch appends a's architectural-state section to b.
func appendArch(b []byte, a archState) []byte {
	regs := make([]isa.Reg, 0, len(a.Regs))
	for r := range a.Regs {
		regs = append(regs, r)
	}
	slices.Sort(regs)
	b = binary.AppendUvarint(b, uint64(len(regs)))
	for _, r := range regs {
		v := a.Regs[r]
		b = append(b, byte(r))
		b = binary.AppendUvarint(b, v.Lo)
		b = binary.AppendUvarint(b, v.Hi)
	}
	b = append(b, byte(a.Flags.Pack().Lo))
	addrs := make([]uint64, 0, len(a.Mem))
	for addr := range a.Mem {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	var prev uint64
	for _, addr := range addrs {
		b = binary.AppendUvarint(b, addr-prev)
		b = binary.AppendUvarint(b, a.Mem[addr])
		prev = addr
	}
	return b
}

// archReader reads an architectural-state section front to back; the first
// problem sticks in err and every later read returns zero.
type archReader struct {
	b   []byte
	err error
}

func (r *archReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("harness: journaled architectural state: %s", msg)
	}
}

// uvarint reads one minimally encoded uvarint (a longer encoding of the same
// value would decode too, but never re-encode to the same bytes).
func (r *archReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("truncated varint")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *archReader) readByte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// count reads an entry count. Every entry takes at least one byte, so a
// count beyond the remaining bytes is corrupt — and is refused before it
// sizes an allocation.
func (r *archReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("count exceeds the remaining bytes")
		return 0
	}
	return int(n)
}

// decodeArch parses an architectural-state section (see appendArch),
// rejecting anything appendArch would not have written.
func decodeArch(b []byte) (archState, error) {
	r := archReader{b: b}
	n := r.count()
	a := archState{Regs: make(map[isa.Reg]alu.Value, n)}
	for i, prev := 0, -1; i < n && r.err == nil; i++ {
		reg := int(r.readByte())
		if reg <= prev {
			r.fail("registers out of order")
		}
		prev = reg
		lo := r.uvarint()
		a.Regs[isa.Reg(reg)] = alu.Value{Lo: lo, Hi: r.uvarint()}
	}
	flags := r.readByte()
	if flags > 15 {
		r.fail("flags byte out of range")
	}
	a.Flags = alu.UnpackFlags(alu.Scalar(uint64(flags)))
	n = r.count()
	a.Mem = make(map[uint64]uint64, n)
	var addr uint64
	for i := 0; i < n && r.err == nil; i++ {
		delta := r.uvarint()
		if i > 0 && delta == 0 {
			r.fail("addresses out of order")
		}
		if addr+delta < addr {
			r.fail("address overflows 64 bits")
		}
		addr += delta
		a.Mem[addr] = r.uvarint()
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return archState{}, r.err
	}
	return a, nil
}

// encodeTotal / decodeTotal serialize a sweep task's speedup sum.
func encodeTotal(total float64) ([]byte, error) {
	return json.Marshal(journaledTotal{Version: cellPayloadVersion, Total: total})
}

func decodeTotal(data []byte) (float64, error) {
	var v journaledTotal
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, err
	}
	if v.Version != cellPayloadVersion {
		return 0, fmt.Errorf("harness: journaled total version %d, want %d", v.Version, cellPayloadVersion)
	}
	return v.Total, nil
}
