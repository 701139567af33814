package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// simulateCell simulates one grid cell on the small core the way Run does.
func simulateCell(t testing.TB, b Benchmark) Cell {
	t.Helper()
	cfg := ooo.SmallConfig()
	th := cfg.WithPolicy(ooo.PolicyRedsoc).Redsoc.ThresholdTicks
	cmp, err := baseline.Compare(context.Background(), cfg, b.Prog, th)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(b, cmp); err != nil {
		t.Fatal(err)
	}
	return Cell{Benchmark: b, Core: cfg.Name, Threshold: th, Cmp: cmp}
}

// quickCell simulates one quick-scale benchmark's cell on the small core.
func quickCell(t testing.TB, name string) Cell {
	t.Helper()
	b, err := FindBenchmark(Benchmarks(Quick), name)
	if err != nil {
		t.Fatal(err)
	}
	return simulateCell(t, b)
}

func cellResults(c *baseline.Comparison) []*ooo.Result {
	var out []*ooo.Result
	for _, r := range c.Engines() {
		out = append(out, *r)
	}
	return out
}

// TestJournalCellPayloadRoundTrip pins payload v5 over every quick
// benchmark: decoding an encoded cell gives back results deep-equal to the
// freshly simulated ones (configs, delay histograms, registers, memory and
// flags included), and the JSON head carries neither a result's config nor
// its architectural state — the key names the one, the binary section
// holds the other.
func TestJournalCellPayloadRoundTrip(t *testing.T) {
	cfg := ooo.SmallConfig()
	for _, b := range Benchmarks(Quick) {
		fresh := simulateCell(t, b)
		data, err := encodeCell(fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCell(data, fresh.Benchmark, cfg, new(archCache))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got.Threshold != fresh.Threshold || got.Core != fresh.Core {
			t.Fatalf("%s: decoded cell %s th=%d, want %s th=%d", b.Name, got.Core, got.Threshold, fresh.Core, fresh.Threshold)
		}
		want := cellResults(fresh.Cmp)
		for i, r := range cellResults(got.Cmp) {
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("%s: %s result does not round-trip the journal", b.Name, want[i].Config.Policy)
			}
		}
		if !reflect.DeepEqual(got.Cmp.TS, fresh.Cmp.TS) {
			t.Errorf("%s: TS result does not round-trip the journal", b.Name)
		}

		head, _, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			t.Fatalf("%s: payload has no section separator", b.Name)
		}
		var top struct {
			Cmp map[string]json.RawMessage `json:"comparison"`
		}
		if err := json.Unmarshal(head, &top); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Baseline", "Redsoc", "MOS", "LoadDelay", "SpecLSQ"} {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(top.Cmp[name], &fields); err != nil {
				t.Fatalf("%s: %s: %v", b.Name, name, err)
			}
			for _, key := range []string{"Config", "FinalRegs", "FinalMem", "FinalFlags"} {
				if _, ok := fields[key]; ok {
					t.Errorf("%s: the head writes the %s result's %s", b.Name, name, key)
				}
			}
		}
		// Encoding must not have stripped the caller's results.
		for _, r := range want {
			if len(r.FinalMem) == 0 || len(r.FinalRegs) == 0 || r.Config.Name != cfg.Name {
				t.Fatalf("%s: encodeCell cleared the %s result's config or architectural state", b.Name, r.Config.Policy)
			}
		}
	}
}

// v4Payload rewrites a v5 payload into the shape payload v4 had: version 4,
// and each result's config and (empty) architectural fields in the head.
func v4Payload(t testing.TB, data []byte, cfgs []ooo.Config) []byte {
	t.Helper()
	head, section, _ := bytes.Cut(data, []byte{'\n'})
	var top map[string]json.RawMessage
	var cmp map[string]json.RawMessage
	if err := json.Unmarshal(head, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["comparison"], &cmp); err != nil {
		t.Fatal(err)
	}
	raw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, name := range []string{"Baseline", "Redsoc", "MOS", "LoadDelay", "SpecLSQ"} {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(cmp[name], &fields); err != nil {
			t.Fatal(err)
		}
		fields["Config"] = raw(cfgs[i])
		fields["FinalRegs"], fields["FinalMem"], fields["FinalFlags"] = raw(nil), raw(nil), raw(alu.Flags{})
		cmp[name] = raw(fields)
	}
	top["comparison"], top["version"] = raw(cmp), raw(4)
	return append(append(raw(top), '\n'), section...)
}

// TestJournalCellPayloadVersions: only a complete v5 payload is a hit.
// Payloads of earlier versions, and a v5 head without its section, are
// cache misses rather than misreads.
func TestJournalCellPayloadVersions(t *testing.T) {
	cfg := ooo.SmallConfig()
	fresh := quickCell(t, "crc")
	data, err := encodeCell(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := bytes.Cut(data, []byte{'\n'})
	base := fresh.Cmp.Baseline
	v2, err := json.Marshal(struct {
		Version   int                  `json:"version"`
		Threshold int                  `json:"threshold_ticks"`
		Cmp       *baseline.Comparison `json:"comparison"`
	}{2, fresh.Threshold, fresh.Cmp})
	if err != nil {
		t.Fatal(err)
	}
	type v3Arch struct {
		Regs  map[isa.Reg]alu.Value `json:"regs"`
		Mem   map[uint64]uint64     `json:"mem"`
		Flags alu.Flags             `json:"flags"`
	}
	v3, err := json.Marshal(struct {
		Version   int                  `json:"version"`
		Threshold int                  `json:"threshold_ticks"`
		Cmp       *baseline.Comparison `json:"comparison"`
		Arch      v3Arch               `json:"arch"`
	}{3, fresh.Threshold, fresh.Cmp, v3Arch{base.FinalRegs, base.FinalMem, base.FinalFlags}})
	if err != nil {
		t.Fatal(err)
	}
	v4 := v4Payload(t, data, baseline.EngineConfigs(cfg, fresh.Threshold))

	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := Options{Journal: store, Resume: true}
	decode := func(d []byte) (Cell, error) { return decodeCell(d, fresh.Benchmark, cfg, new(archCache)) }
	for i, tc := range []struct {
		name    string
		payload []byte
		hit     bool
	}{
		{"v5", data, true},
		{"v2", v2, false},
		{"v3", v3, false},
		{"v4", v4, false},
		{"v5 head without its section", head, false},
		{"v5 head with an empty section", append(slices.Clip(head), '\n'), false},
	} {
		key := cellstore.NewFingerprint("payload-test").Field("case", i).Key()
		if err := store.Put(key, tc.payload); err != nil {
			t.Fatal(err)
		}
		if _, hit := journalGet(opts, key, decode); hit != tc.hit {
			t.Errorf("%s payload: hit = %v, want %v", tc.name, hit, tc.hit)
		}
	}
}

// TestEncodeCellRefuses: a cell the payload could not reproduce exactly is
// refused rather than journaled — one whose results did not run under the
// configs the key names (baseline.EngineConfigs of the cell's core and
// threshold), or whose results disagree on the architectural state.
func TestEncodeCellRefuses(t *testing.T) {
	cfg := ooo.SmallConfig()
	fresh := quickCell(t, "bitcnt")
	if _, err := encodeCell(fresh, cfg); err != nil {
		t.Fatalf("premise: the simulated cell must encode: %v", err)
	}
	// with returns fresh with one result replaced by an edited copy.
	with := func(pick func(*baseline.Comparison) **ooo.Result, edit func(*ooo.Result)) Cell {
		c := fresh
		cmp := *fresh.Cmp
		r := **pick(&cmp)
		edit(&r)
		*pick(&cmp) = &r
		c.Cmp = &cmp
		return c
	}
	redsoc := func(c *baseline.Comparison) **ooo.Result { return &c.Redsoc }
	mos := func(c *baseline.Comparison) **ooo.Result { return &c.MOS }
	base := func(c *baseline.Comparison) **ooo.Result { return &c.Baseline }
	for _, tc := range []struct {
		name string
		cell Cell
		core ooo.Config
		want string
	}{
		{"cell threshold differs from the ReDSOC run's", func() Cell { c := fresh; c.Threshold++; return c }(), cfg, "another config"},
		{"ReDSOC ran at another threshold", with(redsoc, func(r *ooo.Result) { r.Config.Redsoc.ThresholdTicks++ }), cfg, "another config"},
		{"MOS result ran under another policy", with(mos, func(r *ooo.Result) { r.Config.Policy = ooo.PolicyBaseline }), cfg, "another config"},
		{"baseline ran with another ROB", with(base, func(r *ooo.Result) { r.Config.ROBSize++ }), cfg, "another config"},
		{"cell encoded for another core", fresh, ooo.BigConfig(), "another config"},
		{"MOS memory differs", with(mos, func(r *ooo.Result) {
			r.FinalMem = maps.Clone(r.FinalMem)
			r.FinalMem[0xdead0] = 1
		}), cfg, "architectural state differs"},
		{"ReDSOC flags differ", with(redsoc, func(r *ooo.Result) { r.FinalFlags.N = !r.FinalFlags.N }), cfg, "architectural state differs"},
	} {
		if _, err := encodeCell(tc.cell, tc.core); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeArchRejects: the architectural-state decoder accepts exactly
// what appendArch writes; every malformed or non-canonical section is an
// error (a cache miss), never a misread.
func TestDecodeArchRejects(t *testing.T) {
	ok := appendArch(nil, archState{
		Regs:  map[isa.Reg]alu.Value{isa.R(1): {Lo: 300}, isa.V(0): {Lo: 1, Hi: 2}},
		Mem:   map[uint64]uint64{0x1000: 7, 0x1008: 1 << 40},
		Flags: alu.Flags{N: true, C: true},
	})
	if a, err := decodeArch(ok); err != nil || !bytes.Equal(appendArch(nil, a), ok) {
		t.Fatalf("premise: a canonical section must round-trip (err %v)", err)
	}
	// One register r1=5, flags 0, one word 0x10=1, built by hand.
	valid := []byte{1, byte(isa.R(1)), 5, 0, 0, 1, 0x10, 1}
	if _, err := decodeArch(valid); err != nil {
		t.Fatalf("premise: the hand-built section must decode: %v", err)
	}
	for _, tc := range []struct {
		name    string
		section []byte
		want    string
	}{
		{"empty", nil, "truncated varint"},
		{"truncated varint", []byte{0x80}, "truncated varint"},
		{"truncated after the flags", valid[:5], "truncated varint"},
		{"truncated before the flags", []byte{0}, "truncated"},
		{"truncated before the memory count", []byte{0, 0}, "truncated varint"},
		{"truncated inside a word", valid[:len(valid)-1], "truncated varint"},
		{"varint overflows 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "overflows 64 bits"},
		{"non-minimal varint", []byte{0x80, 0x00, 0, 0}, "non-minimal varint"},
		{"register count larger than the remaining bytes", []byte{200, 1, 2}, "count exceeds"},
		{"memory count larger than the remaining bytes", []byte{0, 0, 9, 1, 1}, "count exceeds"},
		{"registers out of order", []byte{2, 5, 0, 0, 4, 0, 0, 0, 0}, "registers out of order"},
		{"duplicate register", []byte{2, 4, 0, 0, 4, 0, 0, 0, 0}, "registers out of order"},
		{"flags byte above 15", []byte{0, 16, 0}, "flags byte out of range"},
		{"zero address delta after the first word", []byte{0, 0, 2, 0x10, 1, 0, 2}, "addresses out of order"},
		{"address overflows 64 bits", append([]byte{0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1}, 1), "address overflows 64 bits"},
		{"trailing bytes", append(slices.Clip(valid), 0), "trailing bytes"},
	} {
		if _, err := decodeArch(tc.section); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: section %x: err = %v, want one mentioning %q", tc.name, tc.section, err, tc.want)
		}
	}
}

// TestJournalKeysAreContentAddressed: the program-digest memo keys on the
// program pointer, but the digest it caches is content-derived — two
// independent builds of the quick suite produce the same cell and sweep
// keys — and the benchmark fields around the program still reach the key.
func TestJournalKeysAreContentAddressed(t *testing.T) {
	keys := func(bs []Benchmark) []cellstore.Key {
		digests := WorkloadDigests(bs)
		var out []cellstore.Key
		for _, cfg := range Cores() {
			for _, b := range bs {
				out = append(out, cellKey(cfg, digests[b.Prog], 4))
			}
			for _, class := range Classes() {
				var ds [][]byte
				for _, b := range bs {
					if b.Class == class {
						ds = append(ds, digests[b.Prog])
					}
				}
				out = append(out, sweepKey(cfg, class, ds, 4))
			}
		}
		return out
	}
	a, b := Benchmarks(Quick), Benchmarks(Quick)
	if a[0].Prog == b[0].Prog {
		t.Fatal("premise: two suite builds must not share program pointers")
	}
	if ka, kb := keys(a), keys(b); !reflect.DeepEqual(ka, kb) {
		t.Fatal("independent builds of one suite give different journal keys")
	}

	base := a[len(a)-1]
	renamed, rewanted := base, base
	renamed.Name += "-renamed"
	rewanted.WantMem = map[uint64]uint64{0x40: 1}
	d := benchmarkDigest(base)
	if bytes.Equal(benchmarkDigest(renamed), d) {
		t.Error("renaming a benchmark over the same program left its digest unchanged")
	}
	if bytes.Equal(benchmarkDigest(rewanted), d) {
		t.Error("changing a benchmark's WantMem over the same program left its digest unchanged")
	}
}

// TestBenchmarkDigestMemoExact: the memoised benchmarkDigest always equals
// the unmemoised digest of what the benchmark holds now — for a program
// reused under another WantMem, for a WantMem changed after the first call
// (including nil versus empty, which maps.Equal does not tell apart), and
// across repeated suite rebuilds.
func TestBenchmarkDigestMemoExact(t *testing.T) {
	check := func(what string, b Benchmark) []byte {
		t.Helper()
		got, want := benchmarkDigest(b), digestBenchmark(b)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: memoised digest %x, want %x", what, got, want)
		}
		return got
	}
	prog := &isa.Program{Name: "digest-memo", Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1)}}}
	b := Benchmark{Class: ClassMiB, Name: "digest-memo", Prog: prog, WantMem: map[uint64]uint64{0x40: 1}}
	first := check("first call", b)

	reused := b
	reused.WantMem = map[uint64]uint64{0x40: 2}
	if bytes.Equal(check("program reused under another WantMem", reused), first) {
		t.Error("a program reused under another WantMem kept the first benchmark's digest")
	}
	check("the first benchmark after the reuse", b)

	b.WantMem[0x48] = 3
	if bytes.Equal(check("WantMem mutated after the first call", b), first) {
		t.Error("a WantMem changed after the first call kept its old digest")
	}
	nilWant := Benchmark{Class: ClassSPEC, Name: "digest-memo-nil", Prog: prog}
	check("nil WantMem", nilWant)
	emptyWant := nilWant
	emptyWant.WantMem = map[uint64]uint64{}
	check("empty WantMem after a nil one", emptyWant)

	suite := func(i int) []Benchmark {
		p := &isa.Program{Name: "rebuilt", Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1), Imm: uint64(i % 3)}}}
		return []Benchmark{
			{Class: ClassMiB, Name: "rebuilt", Prog: p, WantMem: map[uint64]uint64{0x40: uint64(i % 2)}},
			{Class: ClassSPEC, Name: "rebuilt-synthetic", Prog: p},
		}
	}
	for i := 0; i < 8; i++ {
		for _, b := range suite(i) {
			check(fmt.Sprintf("suite rebuild %d: %s", i, b.Name), b)
		}
	}
}

// TestProgramDigestMemoHitAllocFree: once a program is digested, asking
// again returns the cached digest without allocating.
func TestProgramDigestMemoHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	p := &isa.Program{Name: "memo", Instrs: []isa.Instruction{{Op: isa.OpMOV, Dst: isa.R(1)}}}
	d := programDigest(p)
	if avg := testing.AllocsPerRun(100, func() {
		if !bytes.Equal(programDigest(p), d) {
			t.Fatal("memo returned a different digest")
		}
	}); avg != 0 {
		t.Errorf("memoised digest lookup allocates %.1f objects/run, want 0", avg)
	}
}
