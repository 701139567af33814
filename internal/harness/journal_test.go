package harness

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestJournalCellPayloadRoundTrip pins payload v4 over every quick
// benchmark: decoding an encoded cell gives back results deep-equal to the
// freshly simulated ones (delay histograms, registers, memory and flags
// included), and the JSON head carries no architectural state — no arch
// block and no memory words; those live once, in the binary section.
func TestJournalCellPayloadRoundTrip(t *testing.T) {
	for _, b := range Benchmarks(Quick) {
		fresh := simulateCell(t, b)
		data, err := encodeCell(fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCell(data, fresh.Benchmark, fresh.Core)
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
		var top map[string]json.RawMessage
		if err := json.Unmarshal(head, &top); err != nil {
			t.Fatal(err)
		}
		if _, ok := top["arch"]; ok || len(top) != 3 {
			t.Errorf("%s: head has %d top-level keys (arch present: %v), want only version, threshold_ticks and comparison", b.Name, len(top), ok)
		}
		if n := bytes.Count(head, []byte(`"FinalMem":null`)); n != len(want) {
			t.Errorf("%s: head writes %d empty memory images, want %d (one per result, none with words)", b.Name, n, len(want))
		}
		// Encoding must not have stripped the caller's results.
		for _, r := range want {
			if len(r.FinalMem) == 0 || len(r.FinalRegs) == 0 {
				t.Fatalf("%s: encodeCell cleared the %s result's architectural state", b.Name, r.Config.Policy)
			}
		}
	}
}

// TestJournalCellPayloadVersions: only a complete v4 payload is a hit.
// Payloads of earlier versions, and a v4 head without its section, are
// cache misses rather than misreads.
func TestJournalCellPayloadVersions(t *testing.T) {
	fresh := quickCell(t, "crc")
	data, err := encodeCell(fresh)
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

	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := Options{Journal: store, Resume: true}
	decode := func(d []byte) (Cell, error) { return decodeCell(d, fresh.Benchmark, fresh.Core) }
	for i, tc := range []struct {
		name    string
		payload []byte
		hit     bool
	}{
		{"v4", data, true},
		{"v2", v2, false},
		{"v3", v3, false},
		{"v4 head without its section", head, false},
		{"v4 head with an empty section", append(slices.Clip(head), '\n'), false},
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
