package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// quickCell simulates one quick-scale grid cell the way Run does.
func quickCell(t *testing.T, name string) Cell {
	t.Helper()
	b, err := FindBenchmark(Benchmarks(Quick), name)
	if err != nil {
		t.Fatal(err)
	}
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

func cellResults(c *baseline.Comparison) []*ooo.Result {
	var out []*ooo.Result
	for _, r := range c.Engines() {
		out = append(out, *r)
	}
	return out
}

// TestJournalCellPayloadRoundTrip pins payload v3: decoding an encoded cell
// gives back results deep-equal to the freshly simulated ones, the memory
// image is written once rather than once per scheduler, and payloads of the
// old version or without the architectural-state block are misses.
func TestJournalCellPayloadRoundTrip(t *testing.T) {
	fresh := quickCell(t, "crc")
	data, err := encodeCell(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCell(data, fresh.Benchmark, fresh.Core)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != fresh.Threshold || got.Core != fresh.Core {
		t.Fatalf("decoded cell %s th=%d, want %s th=%d", got.Core, got.Threshold, fresh.Core, fresh.Threshold)
	}
	want := cellResults(fresh.Cmp)
	for i, r := range cellResults(got.Cmp) {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("%s result does not round-trip the journal", want[i].Config.Policy)
		}
	}
	if !reflect.DeepEqual(got.Cmp.TS, fresh.Cmp.TS) {
		t.Error("TS result does not round-trip the journal")
	}

	memImage, err := json.Marshal(fresh.Cmp.Baseline.FinalMem)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Cmp.Baseline.FinalMem) == 0 {
		t.Fatal("premise: the cell must have a memory image")
	}
	if n := bytes.Count(data, memImage); n != 1 {
		t.Fatalf("payload holds the memory image %d times, want once", n)
	}
	// Encoding must not have stripped the caller's results.
	for _, r := range cellResults(fresh.Cmp) {
		if len(r.FinalMem) == 0 || len(r.FinalRegs) == 0 {
			t.Fatalf("encodeCell cleared the %s result's architectural state", r.Config.Policy)
		}
	}

	dir := t.TempDir()
	store, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := Options{Journal: store, Resume: true}
	decode := func(d []byte) (Cell, error) { return decodeCell(d, fresh.Benchmark, fresh.Core) }
	v2, err := json.Marshal(struct {
		Version   int                  `json:"version"`
		Threshold int                  `json:"threshold_ticks"`
		Cmp       *baseline.Comparison `json:"comparison"`
	}{2, fresh.Threshold, fresh.Cmp})
	if err != nil {
		t.Fatal(err)
	}
	v3NoArch, err := json.Marshal(journaledCell{Version: cellPayloadVersion, Threshold: fresh.Threshold, Cmp: fresh.Cmp})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name    string
		payload []byte
		hit     bool
	}{
		{"v3", data, true},
		{"v2", v2, false},
		{"v3 without arch block", v3NoArch, false},
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
