package harness

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// Journaling: every unit of grid work — a Phase B cell (every engine policy
// and TS, compared and verified) and a Phase A sweep total (one class × core ×
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
// stores the five results' shared architectural state once;
// version 4 moves that state out of the JSON into a binary section and
// writes each delay histogram sparsely; version 5 drops the five results'
// configs and zero counters from the head; version 6 replaces the JSON
// head with a binary results section and a sweep total's JSON with its
// float's bits (see codec); version 7 drops the architectural-state
// section, since every result of a cell holds its program's final state
// (ooo.FinalState); version 8 drops each result's delay histogram, since
// TS reads its program's delay profile (ooo.DelayProfile), and its
// never-read HeadWait map.
const cellPayloadVersion = 8

// benchmarkDigest canonically fingerprints a workload: the program identity
// (every dynamic instruction, the initial memory image, via programDigest)
// plus the benchmark's class, name and verification data, which participate
// in the cell outcome (a cell that fails verification journals nothing).
// The digest is memoised on the program per (class, name) together with a
// copy of the WantMem it was computed from, and a cached digest is served
// only while the benchmark's WantMem still equals that copy — so a program
// reused under another reference result, or a WantMem changed since, gets
// the digest of what it holds now.
func benchmarkDigest(b Benchmark) []byte {
	d := isa.Derived(b.Prog, digestKey{b.Class, b.Name}, func(*isa.Program) digestedBenchmark {
		return digestedBenchmark{maps.Clone(b.WantMem), digestBenchmark(b)}
	})
	// A nil and an empty WantMem are maps.Equal but digest differently.
	if (d.want == nil) != (b.WantMem == nil) || !maps.Equal(d.want, b.WantMem) {
		return digestBenchmark(b)
	}
	return d.digest
}

// digestKey names one benchmark's digest among the values derived from its
// program.
type digestKey struct {
	class Class
	name  string
}

// digestedBenchmark is a memoised benchmark digest and the WantMem it covers.
type digestedBenchmark struct {
	want   map[uint64]uint64
	digest []byte
}

// digestBenchmark computes benchmarkDigest without the memo.
func digestBenchmark(b Benchmark) []byte {
	return cellstore.DigestJSON(struct {
		Class   Class
		Name    string
		Prog    []byte
		WantMem map[uint64]uint64
	}{b.Class, b.Name, programDigest(b.Prog), b.WantMem})
}

// programDigestKey names a program's own digest among the values derived
// from it.
type programDigestKey struct{}

// programDigest returns the shared, read-only digest of p's contents,
// hashing each program once rather than once per grid run. Programs are
// immutable once built (the assumption trace.DecodeCached shares), so the
// digest lives on the program; it is content-derived, so two builds of one
// suite still produce equal keys.
func programDigest(p *isa.Program) []byte {
	return isa.Derived(p, programDigestKey{}, digestProgram)
}

// digestProgram hashes p's name, every instruction's trace index and fields
// as fixed-width little-endian words and the memory image in ascending
// address order, through one reused buffer: a JSON form of the trace would
// be about 140 bytes per instruction, each field reached by reflection.
func digestProgram(p *isa.Program) []byte {
	h := sha256.New()
	le := binary.LittleEndian
	b := make([]byte, 0, 64<<10)
	flush := func() {
		if len(b) > cap(b)-64 {
			h.Write(b)
			b = b[:0]
		}
	}
	b = le.AppendUint64(b, uint64(len(p.Name)))
	b = le.AppendUint64(append(b, p.Name...), uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var flags byte
		if in.SetFlags {
			flags |= 1
		}
		if in.Taken {
			flags |= 2
		}
		b = le.AppendUint64(le.AppendUint64(b, uint64(i)), in.PC)
		b = le.AppendUint64(append(b, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Src3)), in.Imm)
		b = append(le.AppendUint64(append(b, in.ShiftAmt, byte(in.Lane)), in.Addr), flags)
		flush()
	}
	addrs := sortedKeys(p.Mem)
	b = le.AppendUint64(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = le.AppendUint64(le.AppendUint64(b, a), p.Mem[a])
		flush()
	}
	h.Write(b)
	return h.Sum(nil)
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

// The key fields every grid cell or sweep total shares, marshalled once:
// Field would marshal them again for every key. Bytes folds the same JSON,
// so the keys are unchanged. An int and a []string always marshal.
var (
	payloadVersionID, _ = json.Marshal(cellPayloadVersion)
	cellPoliciesID, _   = json.Marshal(append(ooo.PolicyNames(), "ts"))
)

// intID is the canonical JSON of an int key field, its decimal digits.
func intID(v int) []byte { return strconv.AppendInt(nil, int64(v), 10) }

// cellKey fingerprints one Phase B grid cell: the full core configuration
// (core, its canonical JSON, marshalled once per run), the workload digest,
// the policy set the cell compares, and the threshold the sweep chose.
func cellKey(core, digest []byte, threshold int) cellstore.Key {
	return cellstore.NewFingerprint("grid-cell").
		Bytes("payload-version", payloadVersionID).
		Bytes("core", core).
		Bytes("workload", digest).
		Bytes("policies", cellPoliciesID).
		Bytes("threshold", intID(threshold)).
		Key()
}

// sweepKey fingerprints one Phase A sweep task: the core and the class
// (their canonical JSON, marshalled once per run as for cellKey), the
// ordered workload digests of the class, and the candidate threshold.
func sweepKey(core, class []byte, digests [][]byte, candidate int) cellstore.Key {
	f := cellstore.NewFingerprint("sweep-total").
		Bytes("payload-version", payloadVersionID).
		Bytes("core", core).
		Bytes("class", class).
		Bytes("candidate", intID(candidate))
	for i, d := range digests {
		f.Bytes("workload-"+strconv.Itoa(i), d)
	}
	return f.Key()
}

// encodeCell serializes a completed cell of core cfg for the journal: its
// results section (codec.cell), which is canonical, so identical cells
// produce identical bytes. What the payload leaves out must come back
// exactly: a cell whose comparison names another benchmark or core than
// (b, cfg), or whose results did not run under baseline.EngineConfigs(cfg,
// threshold), is refused, so it is simulated again rather than journaled
// lossily. The results' architectural state is left out too: a run that
// returned a result ended in its program's final state (ooo.FinalState).
func encodeCell(c Cell, cfg ooo.Config) ([]byte, error) {
	cmp := c.Cmp
	if cmp.Benchmark != c.Benchmark.Prog.Name || cmp.Core != cfg.Name {
		return nil, fmt.Errorf("harness: cell %s/%s: comparison names another cell than %s on %s", cmp.Benchmark, cmp.Core, c.Benchmark.Prog.Name, cfg.Name)
	}
	cfgs := baseline.EngineConfigs(cfg, c.Threshold)
	for p, r := range cmp.Runs {
		if r.Config != cfgs[p] {
			return nil, fmt.Errorf("harness: cell %s/%s: %s result ran under another config than %s at threshold %d", cmp.Benchmark, cmp.Core, r.Config.Policy, cfg.Name, c.Threshold)
		}
	}
	w := codec{enc: true, b: make([]byte, 0, 4<<10)}
	w.cell(&c.Threshold, cmp)
	return w.b, nil
}

// decodeCell rebuilds the Cell of task t from its journaled payload: the
// comparison gets its benchmark and core names back from t, each result
// its config from t.engines and its architectural state from the
// program's final state (shared, read-only maps). Any shape problem, or a
// threshold other than t's, is an error, which the caller treats as a
// cache miss.
func decodeCell(data []byte, t cellTask) (Cell, error) {
	rd := codec{b: data}
	cmp := &baseline.Comparison{Benchmark: t.b.Prog.Name, Core: t.cfg.Name}
	var th int
	if rd.cell(&th, cmp); rd.end() != nil {
		return Cell{}, rd.err
	}
	if th != t.th {
		return Cell{}, fmt.Errorf("harness: journaled cell at threshold %d, want %d", th, t.th)
	}
	regs, mem, flags := ooo.FinalState(t.b.Prog)
	for p, r := range cmp.Runs {
		r.Config = t.engines[p]
		r.FinalRegs, r.FinalMem, r.FinalFlags = regs, mem, flags
	}
	return Cell{Benchmark: t.b, Core: t.cfg.Name, Threshold: th, Cmp: cmp}, nil
}

// A grid-cell payload is one front-to-back sequence of encoding/binary
// uvarints and floats as 8-byte little-endian IEEE 754 bits:
//
//	version (cellPayloadVersion), threshold
//	one result per policy in ooo.Policy order, each field in ooo.Result declaration order:
//	    a counter: the uvarint of its two's-complement bits
//	    Sequences: entry count, then length and count per entry in
//	        ascending length order
//	TS: PeriodPS, ErrorRate and Speedup (floats), Cycles
//
// The key names the configs, benchmark and core, so the payload does not;
// the program's final state supplies every result's architectural state. A
// sweep total is the version and its float. The decoder accepts only what
// the encoder writes — the exact version, minimal varints, strictly
// ascending keys, no trailing bytes — so a payload that decodes re-encodes
// to the same bytes.

// codec walks a payload in one fixed order in either direction: with enc
// set, each step appends the value its pointer holds to b; otherwise it
// reads the value from the front of b into the pointer, the first problem
// sticks in err, and every later read yields zero. One walk (cell, result)
// serves both directions, so encoder and decoder cannot drift apart.
// Encoding never writes through its pointers: other goroutines may be
// reading the same results.
type codec struct {
	enc bool
	b   []byte
	err error
}

func (c *codec) fail(msg string) {
	if c.err == nil {
		c.err = fmt.Errorf("harness: journaled payload: %s", msg)
	}
}

// uvarint reads one minimally encoded uvarint (a longer encoding of the same
// value would decode too, but never re-encode to the same bytes).
func (c *codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	switch {
	case n == 0:
		c.fail("truncated varint")
		return 0
	case n < 0:
		c.fail("varint overflows 64 bits")
		return 0
	case n > 1 && c.b[n-1] == 0:
		c.fail("non-minimal varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// next reads the next n raw bytes (zeros once decoding has failed).
func (c *codec) next(n int) []byte {
	if c.err == nil && len(c.b) < n {
		c.fail("truncated")
	}
	if c.err != nil {
		return make([]byte, n)
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// count reads an entry count. Every entry takes at least one byte, so a
// count beyond the remaining bytes is corrupt — and is refused before it
// sizes an allocation.
func (c *codec) count() int {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail("count exceeds the remaining bytes")
		return 0
	}
	return int(n)
}

// ints walks integers as uvarints; a negative one is its two's-complement
// bits, so every value round-trips.
func ints[T ~int | ~int64 | ~uint64](c *codec, ps ...*T) {
	for _, p := range ps {
		if c.enc {
			c.b = binary.AppendUvarint(c.b, uint64(*p))
		} else {
			*p = T(c.uvarint())
		}
	}
}

// floats walks floats as their IEEE 754 bits, 8 bytes little-endian.
func (c *codec) floats(ps ...*float64) {
	for _, p := range ps {
		if c.enc {
			c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		} else {
			*p = math.Float64frombits(binary.LittleEndian.Uint64(c.next(8)))
		}
	}
}

// version walks the payload version; decoding fails on any other.
func (c *codec) version() {
	v := uint64(cellPayloadVersion)
	if ints(c, &v); v != cellPayloadVersion {
		c.fail(fmt.Sprintf("version %d, want %d", v, cellPayloadVersion))
	}
}

// end fails a decoded payload with bytes left over.
func (c *codec) end() error {
	if c.err == nil && len(c.b) > 0 {
		c.fail("trailing bytes")
	}
	return c.err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sequences walks a sequence-length histogram as an entry count and then
// each length and count in ascending length order; decoding requires
// strictly ascending lengths and leaves *m nil when there are none.
func (c *codec) sequences(m *map[int]uint64) {
	keys := sortedKeys(*m)
	n := len(keys)
	if c.enc {
		ints(c, &n)
	} else if n = c.count(); n > 0 {
		*m, keys = make(map[int]uint64, n), make([]int, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		v := (*m)[keys[i]]
		if ints(c, &keys[i]); i > 0 && keys[i] <= keys[i-1] {
			c.fail("keys out of order")
		}
		if ints(c, &v); !c.enc {
			(*m)[keys[i]] = v
		}
	}
}

// result walks every field of r but its config and architectural state, in
// declaration order.
func (c *codec) result(r *ooo.Result) {
	m, f, w, ms := &r.Mix, &r.FaultStats, &r.WidthPredictor, &r.MemStats
	ints(c, &r.Cycles, &r.Instructions, &m.MemHL, &m.MemLL, &m.SIMD, &m.OtherMulti, &m.ALUHS, &m.ALULS,
		&r.RecycledOps, &r.TwoCycleHolds, &r.GPWakeupGrants, &r.GPWakeupWasted, &r.TagMispredicts,
		&r.WidthReplays, &r.FusedOps, &r.FUStallCycles, &r.IssueCycles,
		&r.LoadDelayPredicts, &r.LoadDelayMispredicts, &r.LSQSpecForwards, &r.LSQMisallocations,
		&r.StallRedirect, &r.StallROB, &r.StallRSE, &r.StallLSQ)
	ints(c, &r.ThresholdAdjustments)
	ints(c, &r.FinalThreshold)
	ints(c, &r.PVTRecalibrations, &r.TimingViolations, &r.ViolationReplays, &r.DegradationEvents,
		&r.DegradeRearms, &r.DegradedCycles, &f.Estimate, &f.Delay, &f.Latch, &f.Predictor)
	var seqs map[int]uint64
	if c.enc && r.Sequences != nil {
		seqs = r.Sequences.Histogram()
	}
	if c.sequences(&seqs); !c.enc {
		r.Sequences = core.SeqTrackerOf(seqs)
	}
	ints(c, &w.Lookups, &w.Exact, &w.Conservative, &w.Aggressive,
		&r.LastArrival.Lookups, &r.LastArrival.Mispredictions, &r.LoadDelay.Lookups, &r.LoadDelay.Mispredictions,
		&r.Branches.Lookups, &r.Branches.Mispredictions,
		&ms.Accesses, &ms.L1Hits, &ms.L2Hits, &ms.DRAMAccesses, &ms.Prefetches)
}

// cell walks a cell's payload. Decoding allocates the results.
func (c *codec) cell(th *int, cmp *baseline.Comparison) {
	c.version()
	ints(c, th)
	for p := range cmp.Runs {
		if !c.enc {
			cmp.Runs[p] = new(ooo.Result)
		}
		c.result(cmp.Runs[p])
	}
	ts := &cmp.TS
	ints(c, &ts.PeriodPS)
	c.floats(&ts.ErrorRate, &ts.Speedup)
	ints(c, &ts.Cycles)
}

// encodeTotal / decodeTotal serialize a sweep task's speedup sum: the
// payload version and the float.
func encodeTotal(total float64) ([]byte, error) {
	w := codec{enc: true}
	w.version()
	w.floats(&total)
	return w.b, nil
}

func decodeTotal(data []byte) (float64, error) {
	r := codec{b: data}
	var total float64
	r.version()
	r.floats(&total)
	return total, r.end()
}
