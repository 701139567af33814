package harness

import (
	"encoding/json"
	"fmt"
	"maps"

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
// stores the five results' shared architectural state once (archState).
const cellPayloadVersion = 3

// journaledCell is the serialized outcome of one grid cell. The five
// ooo.Results in Cmp are written with their architectural fields empty;
// Arch holds that state once for all of them.
type journaledCell struct {
	Version   int                  `json:"version"`
	Threshold int                  `json:"threshold_ticks"`
	Cmp       *baseline.Comparison `json:"comparison"`
	Arch      *archState           `json:"arch,omitempty"`
}

// archState is the final architectural state every scheduler of a cell
// committed. baseline.Compare fails a cell whose schedulers
// disagree (ArchEqual), so one copy describes all five results exactly;
// encodeCell re-checks that before dropping the other four.
type archState struct {
	Regs  map[isa.Reg]alu.Value `json:"regs"`
	Mem   map[uint64]uint64     `json:"mem"`
	Flags alu.Flags             `json:"flags"`
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

// encodeCell serializes a completed cell for the journal. encoding/json is
// canonical here (struct fields in declaration order, map keys sorted,
// shortest-round-trip floats), so identical cells produce identical bytes.
// The architectural state is written once (see archState); a cell whose
// five results do not hold exactly the same state is refused, so it is
// simulated again rather than journaled lossily.
func encodeCell(c Cell) ([]byte, error) {
	cmp := *c.Cmp
	base := cmp.Baseline
	arch := &archState{Regs: base.FinalRegs, Mem: base.FinalMem, Flags: base.FinalFlags}
	for _, res := range cmp.Engines() {
		r := **res
		if !maps.Equal(r.FinalRegs, arch.Regs) || !maps.Equal(r.FinalMem, arch.Mem) || r.FinalFlags != arch.Flags {
			return nil, fmt.Errorf("harness: cell %s/%s: %s architectural state differs from baseline", cmp.Benchmark, cmp.Core, r.Config.Policy)
		}
		r.FinalRegs, r.FinalMem, r.FinalFlags = nil, nil, alu.Flags{}
		*res = &r
	}
	return json.Marshal(journaledCell{Version: cellPayloadVersion, Threshold: c.Threshold, Cmp: &cmp, Arch: arch})
}

// decodeCell rebuilds a Cell from its journaled payload, handing the one
// stored architectural state to all five results (they share its maps;
// everything downstream only reads them). Any shape problem is an error,
// which the caller treats as a cache miss.
func decodeCell(data []byte, b Benchmark, core string) (Cell, error) {
	var v journaledCell
	if err := json.Unmarshal(data, &v); err != nil {
		return Cell{}, err
	}
	if v.Version != cellPayloadVersion {
		return Cell{}, fmt.Errorf("harness: journaled cell version %d, want %d", v.Version, cellPayloadVersion)
	}
	if v.Cmp == nil || v.Arch == nil {
		return Cell{}, fmt.Errorf("harness: journaled cell is incomplete")
	}
	for _, res := range v.Cmp.Engines() {
		r := *res
		if r == nil {
			return Cell{}, fmt.Errorf("harness: journaled cell is incomplete")
		}
		r.FinalRegs, r.FinalMem, r.FinalFlags = v.Arch.Regs, v.Arch.Mem, v.Arch.Flags
	}
	return Cell{Benchmark: b, Core: core, Threshold: v.Threshold, Cmp: v.Cmp}, nil
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
