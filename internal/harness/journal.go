package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"

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
// writes each delay histogram sparsely (ooo.DelayHistogram); version 5
// drops the five results' configs and zero counters from the head.
const cellPayloadVersion = 5

// journaledCell is the JSON head of one grid cell's payload. Its five
// ooo.Results carry neither their configs nor their architectural state
// (ooo.Result leaves both out of its JSON): the configs are a function of
// the core and the threshold the cell key already names
// (baseline.EngineConfigs), and the binary section after the head holds the
// state once for all of them.
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
// The digest is memoised per (program, class, name) together with a copy of
// the WantMem it was computed from, and a cached digest is served only while
// the benchmark's WantMem still equals that copy — so a program reused under
// another reference result, or a WantMem changed since, gets the digest of
// what it holds now.
func benchmarkDigest(b Benchmark) []byte {
	d := benchmarkDigests.Get(digestKey{b.Prog, b.Class, b.Name}, func(digestKey) digestedBenchmark {
		return digestedBenchmark{maps.Clone(b.WantMem), digestBenchmark(b)}
	})
	// A nil and an empty WantMem are maps.Equal but digest differently.
	if (d.want == nil) != (b.WantMem == nil) || !maps.Equal(d.want, b.WantMem) {
		return digestBenchmark(b)
	}
	return d.digest
}

// digestKey names one benchmark in benchmarkDigests.
type digestKey struct {
	prog  *isa.Program
	class Class
	name  string
}

// digestedBenchmark is a memoised benchmark digest and the WantMem it covers.
type digestedBenchmark struct {
	want   map[uint64]uint64
	digest []byte
}

// benchmarkDigests memoises benchmarkDigest under the same bound as
// programDigests: serve rebuilds no suite, but a benchmark harness that
// rebuilds one per iteration must not pin every program it ever built.
var benchmarkDigests = memo.New[digestKey, digestedBenchmark](maxDigestedPrograms)

// digestBenchmark computes benchmarkDigest without the memo.
func digestBenchmark(b Benchmark) []byte {
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

// encodeCell serializes a completed cell of core cfg for the journal: the
// JSON head (journaledCell), one newline — which json.Marshal never emits —
// and the binary architectural-state section (appendArch). Both parts are
// canonical (encoding/json writes struct fields in declaration order, map
// keys sorted and shortest-round-trip floats; the section is sorted), so
// identical cells produce identical bytes. What the payload leaves out must
// come back exactly: a cell whose results did not run under
// baseline.EngineConfigs(cfg, threshold), or whose five results do not hold
// exactly the same architectural state (see archState), is refused, so it
// is simulated again rather than journaled lossily.
func encodeCell(c Cell, cfg ooo.Config) ([]byte, error) {
	cmp := c.Cmp
	base := cmp.Baseline
	cfgs := baseline.EngineConfigs(cfg, c.Threshold)
	for i, res := range cmp.Engines() {
		r := *res
		if r.Config != cfgs[i] {
			return nil, fmt.Errorf("harness: cell %s/%s: %s result ran under another config than %s at threshold %d", cmp.Benchmark, cmp.Core, r.Config.Policy, cfg.Name, c.Threshold)
		}
		if !r.ArchEqual(base) {
			return nil, fmt.Errorf("harness: cell %s/%s: %s architectural state differs from baseline", cmp.Benchmark, cmp.Core, r.Config.Policy)
		}
	}
	head, err := json.Marshal(journaledCell{Version: cellPayloadVersion, Threshold: c.Threshold, Cmp: cmp})
	if err != nil {
		return nil, err
	}
	return appendArch(append(head, '\n'), archState{Regs: base.FinalRegs, Mem: base.FinalMem, Flags: base.FinalFlags}), nil
}

// decodeCell rebuilds a Cell of b on core cfg from its journaled payload:
// each result gets its config back from baseline.EngineConfigs, and all five
// share the one stored architectural state (its maps; everything downstream
// only reads them), decoded through archs. Any shape problem is an error,
// which the caller treats as a cache miss.
func decodeCell(data []byte, b Benchmark, cfg ooo.Config, archs *archCache) (Cell, error) {
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
	arch, err := archs.decode(b.Prog, section)
	if err != nil {
		return Cell{}, err
	}
	cfgs := baseline.EngineConfigs(cfg, v.Threshold)
	for i, res := range v.Cmp.Engines() {
		r := *res
		if r == nil {
			return Cell{}, fmt.Errorf("harness: journaled cell is incomplete")
		}
		r.Config = cfgs[i]
		r.FinalRegs, r.FinalMem, r.FinalFlags = arch.Regs, arch.Mem, arch.Flags
	}
	return Cell{Benchmark: b, Core: cfg.Name, Threshold: v.Threshold, Cmp: v.Cmp}, nil
}

// archCache is the cell-phase counterpart of the engine's canonical final
// state (internal/ooo/final.go): within one grid run, the journaled cells
// of a program whose architectural-state sections are byte-equal share one
// decoded state instead of each decoding its own copy — a program's cells
// on the three cores normally hold the same section. Every distinct section
// is kept, not only the first decoded, so which cells share does not depend
// on the order the workers decode them in.
type archCache struct {
	mu sync.Mutex
	m  map[*isa.Program][]decodedArch
}

// decodedArch is a decoded section and the bytes it was decoded from.
type decodedArch struct {
	section []byte
	arch    archState
}

// find returns the state decoded from prog's section, if any; c.mu is held.
func (c *archCache) find(prog *isa.Program, section []byte) (archState, bool) {
	for _, d := range c.m[prog] {
		if bytes.Equal(d.section, section) {
			return d.arch, true
		}
	}
	return archState{}, false
}

// decode returns the architectural state of prog's section, shared as
// described on archCache.
func (c *archCache) decode(prog *isa.Program, section []byte) (archState, error) {
	c.mu.Lock()
	a, ok := c.find(prog, section)
	c.mu.Unlock()
	if ok {
		return a, nil
	}
	a, err := decodeArch(section)
	if err != nil {
		return archState{}, err
	}
	// Decoding ran unlocked, so another cell of prog may have decoded the
	// same bytes meanwhile: adopt its state.
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.find(prog, section); ok {
		return d, nil
	}
	if c.m == nil {
		c.m = map[*isa.Program][]decodedArch{}
	}
	c.m[prog] = append(c.m[prog], decodedArch{section, a})
	return a, nil
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
