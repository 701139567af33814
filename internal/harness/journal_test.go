package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/core"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/timing"
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

func cellResults(c *baseline.Comparison) []*ooo.Result { return c.Runs[:] }

// TestJournalCellPayloadRoundTrip pins payload v7 over every quick
// benchmark: decoding an encoded cell gives back results deep-equal to the
// freshly simulated ones (configs, delay histograms, registers, memory and
// flags included), and the same TS result.
func TestJournalCellPayloadRoundTrip(t *testing.T) {
	cfg := ooo.SmallConfig()
	for _, b := range Benchmarks(Quick) {
		fresh := simulateCell(t, b)
		data, err := encodeCell(fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCell(data, taskOf(fresh, cfg))
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
		if got.Cmp.Benchmark != fresh.Cmp.Benchmark || got.Cmp.Core != fresh.Cmp.Core {
			t.Errorf("%s: decoded comparison names %s/%s, want %s/%s", b.Name, got.Cmp.Benchmark, got.Cmp.Core, fresh.Cmp.Benchmark, fresh.Cmp.Core)
		}
		// Encoding must not have stripped the caller's results.
		for _, r := range want {
			if len(r.FinalMem) == 0 || len(r.FinalRegs) == 0 || r.Config.Name != cfg.Name {
				t.Fatalf("%s: encodeCell cleared the %s result's config or architectural state", b.Name, r.Config.Policy)
			}
		}
	}
}

// TestLoadBufferReuseLeavesCellIntact: cellstore.Load hands decodeCell the
// payload in a read buffer that the next Load reuses, so a decoded Cell must
// own all it holds — HeadWait keys, Sequences, the architectural state and
// the delay histograms. A later Load that reuses the buffer and scribbles
// over every byte of it leaves the earlier Cell equal to the simulated one.
func TestLoadBufferReuseLeavesCellIntact(t *testing.T) {
	cfg := ooo.SmallConfig()
	fresh := quickCell(t, "crc")
	var heads, seqs, bins int
	for _, r := range cellResults(fresh.Cmp) {
		heads, seqs, bins = heads+len(r.HeadWait), seqs+len(r.Sequences.Histogram()), bins+len(r.DelayHistogram)
	}
	if heads == 0 || seqs == 0 || bins == 0 || len(fresh.Cmp.Runs[ooo.PolicyBaseline].FinalMem) == 0 {
		t.Fatal("premise: the cell must hold HeadWait, Sequences, delay bins and memory")
	}
	data, err := encodeCell(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	key := cellstore.Key(strings.Repeat("5a", sha256.Size))
	if err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}
	var buf *byte
	got, ok := cellstore.Load(store, key, func(d []byte) (Cell, error) {
		buf = &d[0]
		return decodeCell(d, taskOf(fresh, cfg))
	})
	if !ok {
		t.Fatal("journaled cell missed")
	}
	if _, ok := cellstore.Load(store, key, func(d []byte) (bool, error) {
		if &d[0] != buf {
			t.Fatal("the second Load read into another buffer; the test proves nothing")
		}
		d = d[:cap(d)]
		for i := range d {
			d[i] = 0xa5
		}
		return true, nil
	}); !ok {
		t.Fatal("journaled cell missed")
	}
	want := cellResults(fresh.Cmp)
	for i, r := range cellResults(got.Cmp) {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("%s result changed when a later Load reused its buffer", want[i].Config.Policy)
		}
	}
}

// TestCellCodecComplete: the payload carries every field of ooo.Result but
// the config and the architectural state, which the key and the last
// section supply. Every such field of all five results — counters,
// HeadWait, Sequences and histogram bins — and every field of TS is set by
// reflection to a distinct non-zero value, so a field added to either type
// and missing from the codec fails the round trip.
func TestCellCodecComplete(t *testing.T) {
	cfg := ooo.SmallConfig()
	c := quickCell(t, "crc")
	cmp := *c.Cmp
	next := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		next++
		switch {
		case v.Type() == reflect.TypeOf((*core.SeqTracker)(nil)):
			v.Set(reflect.ValueOf(core.SeqTrackerOf(map[int]uint64{2: uint64(next), 9: uint64(next) << 40})))
		case v.Type() == reflect.TypeOf(map[string]int64(nil)):
			v.Set(reflect.ValueOf(map[string]int64{"alu": next, "load/unissued": -next}))
		case v.Kind() == reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case v.Type() == reflect.TypeOf(ooo.DelayHistogram(nil)):
			v.Set(reflect.ValueOf(ooo.DelayHistogram{{PS: 3, Ops: next}, {PS: 250, Ops: next << 20}, {PS: timing.ClockPS, Ops: -next}}))
		case v.CanInt():
			v.SetInt(next)
		case v.CanUint():
			v.SetUint(uint64(next))
		case v.CanFloat():
			v.SetFloat(float64(next) + 0.25)
		default:
			t.Fatalf("no distinct value for a field of type %s", v.Type())
		}
	}
	supplied := map[string]bool{"Config": true, "FinalRegs": true, "FinalMem": true, "FinalFlags": true}
	for p, res := range cmp.Runs {
		r := &ooo.Result{Config: res.Config, FinalRegs: res.FinalRegs, FinalMem: res.FinalMem, FinalFlags: res.FinalFlags}
		rv := reflect.ValueOf(r).Elem()
		for i := range rv.NumField() {
			if !supplied[rv.Type().Field(i).Name] {
				fill(rv.Field(i))
			}
		}
		cmp.Runs[p] = r
	}
	fill(reflect.ValueOf(&cmp.TS).Elem())
	c.Cmp = &cmp

	data, err := encodeCell(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCell(data, taskOf(c, cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := cellResults(c.Cmp)
	for i, r := range cellResults(got.Cmp) {
		gv, wv := reflect.ValueOf(r).Elem(), reflect.ValueOf(want[i]).Elem()
		for j := range gv.NumField() {
			if !reflect.DeepEqual(gv.Field(j).Interface(), wv.Field(j).Interface()) {
				t.Errorf("%s result: %s does not round-trip the journal", want[i].Config.Policy, gv.Type().Field(j).Name)
			}
		}
	}
	if got.Cmp.TS != c.Cmp.TS {
		t.Errorf("TS %+v does not round-trip the journal: got %+v", c.Cmp.TS, got.Cmp.TS)
	}
}

// archSection is an architectural-state section in the binary form
// payload versions 4–6 followed their results with: one register, r1 = 5,
// flags 0, and one memory word, 0x10 = 1.
var archSection = []byte{1, byte(isa.R(1)), 5, 0, 0, 1, 0x10, 1}

// v6Payload rewrites v7 cell payload data in version 6's shape: the same
// results under version 6, followed by an architectural-state section.
func v6Payload(data []byte) []byte {
	return append(append([]byte{6}, data[1:]...), archSection...)
}

// jsonPayload writes cell c in the JSON shape of payload version 2–5: a
// head of the version, the threshold and the comparison; version 3 puts the
// architectural state in the head too, and versions 4 and 5 follow the head
// with a newline and the binary section.
func jsonPayload(t testing.TB, version int, c Cell) []byte {
	t.Helper()
	base := c.Cmp.Runs[ooo.PolicyBaseline]
	head := map[string]any{"version": version, "threshold_ticks": c.Threshold, "comparison": c.Cmp}
	if version == 3 {
		head["arch"] = map[string]any{"regs": base.FinalRegs, "mem": base.FinalMem, "flags": base.FinalFlags}
	}
	data, err := json.Marshal(head)
	if err != nil {
		t.Fatal(err)
	}
	if version >= 4 {
		data = append(append(data, '\n'), archSection...)
	}
	return data
}

// TestJournalCellPayloadVersions: only a complete v7 payload is a hit.
// Payloads of versions 2–6, and a v7 payload truncated or followed by v6's
// architectural-state section, are cache misses rather than misreads.
func TestJournalCellPayloadVersions(t *testing.T) {
	cfg := ooo.SmallConfig()
	fresh := quickCell(t, "crc")
	data, err := encodeCell(fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	decode := func(d []byte) (Cell, error) { return decodeCell(d, taskOf(fresh, cfg)) }
	for i, tc := range []struct {
		name    string
		payload []byte
		hit     bool
	}{
		{"v7", data, true},
		{"v2", jsonPayload(t, 2, fresh), false},
		{"v3", jsonPayload(t, 3, fresh), false},
		{"v4", jsonPayload(t, 4, fresh), false},
		{"v5", jsonPayload(t, 5, fresh), false},
		{"v6", v6Payload(data), false},
		{"v7 followed by an architectural-state section", append(slices.Clip(data), archSection...), false},
		{"truncated v7", data[:len(data)-1], false},
	} {
		key := cellstore.NewFingerprint("payload-test").Field("case", i).Key()
		if err := store.Put(key, tc.payload); err != nil {
			t.Fatal(err)
		}
		if _, hit := cellstore.Load(store, key, decode); hit != tc.hit {
			t.Errorf("%s payload: hit = %v, want %v", tc.name, hit, tc.hit)
		}
	}
	if st := store.Stats(); st.Hits != 1 || st.Corrupt != 7 {
		t.Errorf("stats = %+v, want the v7 payload a hit and every other a corrupt miss", st)
	}
}

// TestEncodeCellRefuses: a cell the payload could not reproduce exactly is
// refused rather than journaled — one that names another cell, or whose
// results did not run under the configs the key names
// (baseline.EngineConfigs of the cell's core and threshold).
func TestEncodeCellRefuses(t *testing.T) {
	cfg := ooo.SmallConfig()
	fresh := quickCell(t, "bitcnt")
	if _, err := encodeCell(fresh, cfg); err != nil {
		t.Fatalf("premise: the simulated cell must encode: %v", err)
	}
	// with returns fresh with one result replaced by an edited copy.
	with := func(p ooo.Policy, edit func(*ooo.Result)) Cell {
		c := fresh
		cmp := *fresh.Cmp
		r := *cmp.Runs[p]
		edit(&r)
		cmp.Runs[p] = &r
		c.Cmp = &cmp
		return c
	}
	redsoc, mos, base := ooo.PolicyRedsoc, ooo.PolicyMOS, ooo.PolicyBaseline
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
		{"cell encoded for another core", fresh, ooo.BigConfig(), "another cell"},
		{"comparison names another benchmark", func() Cell {
			c, cmp := fresh, *fresh.Cmp
			cmp.Benchmark += "-renamed"
			c.Cmp = &cmp
			return c
		}(), cfg, "another cell"},
	} {
		if _, err := encodeCell(tc.cell, tc.core); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestDelayHistogramPayload pins the sparse binary form of a delay
// histogram: the count of its bins, then each bin's delay and count as
// uvarints in ascending order, decoding back to the same bins. No bins
// encode as a zero count and decode to nil, as the engine leaves them.
func TestDelayHistogramPayload(t *testing.T) {
	h := ooo.DelayHistogram{{PS: 0, Ops: 3}, {PS: 212, Ops: 40}, {PS: timing.ClockPS, Ops: 1 << 40}}
	w := codec{enc: true}
	w.histogram(&h)
	want := []byte{3, 0, 3, 0xd4, 0x01, 40, 0xf4, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if !bytes.Equal(w.b, want) {
		t.Fatalf("got % x, want % x", w.b, want)
	}
	r := codec{b: w.b}
	var back ooo.DelayHistogram
	if r.histogram(&back); r.end() != nil || !reflect.DeepEqual(back, h) {
		t.Fatalf("histogram does not round-trip (err %v): %v", r.err, back)
	}
	var empty ooo.DelayHistogram
	w = codec{enc: true}
	if w.histogram(&empty); !bytes.Equal(w.b, []byte{0}) {
		t.Fatalf("empty histogram encodes as % x, want 00", w.b)
	}
	r = codec{b: w.b}
	if r.histogram(&empty); r.end() != nil || empty != nil {
		t.Fatalf("no bins decode as %#v (err %v), want nil", empty, r.err)
	}
}

// TestDelayHistogramPayloadRejects: the histogram decoder accepts only what
// the encoder writes, so every accepted form re-encodes to the same bytes.
func TestDelayHistogramPayloadRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "truncated varint"},
		{"truncated pair", []byte{1, 5}, "truncated varint"},
		{"bin out of range", []byte{1, 0xf5, 0x03, 1}, "bins out of order"},
		{"repeated bin", []byte{2, 5, 1, 5, 1}, "bins out of order"},
		{"descending bins", []byte{2, 6, 1, 5, 1}, "bins out of order"},
		{"zero count", []byte{1, 5, 0}, "zero delay histogram count"},
		{"non-minimal count", []byte{1, 5, 0x81, 0x00}, "non-minimal varint"},
		{"bin count larger than the remaining bytes", []byte{9, 5, 1}, "count exceeds"},
		{"trailing bytes", []byte{1, 5, 1, 0}, "trailing bytes"},
	} {
		r := codec{b: tc.in}
		var h ooo.DelayHistogram
		if r.histogram(&h); r.end() == nil || !strings.Contains(r.err.Error(), tc.want) {
			t.Errorf("%s: % x: err = %v, want one mentioning %q", tc.name, tc.in, r.err, tc.want)
		}
	}
}

// TestCellPayloadRejects: the rest of the codec is as strict — the exact
// version, strictly ascending map keys, string lengths and floats within
// the payload, no trailing bytes — so a malformed payload is an error (a
// cache miss), never a misread.
func TestCellPayloadRejects(t *testing.T) {
	total, err := encodeTotal(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := decodeTotal(total); err != nil || v != 1.5 {
		t.Fatalf("premise: a sweep total must round-trip (got %v, err %v)", v, err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		walk func(*codec)
		want string
	}{
		{"total of version 6", append([]byte{6}, total[1:]...), nil, "version 6, want 7"},
		{"truncated total", total[:len(total)-1], nil, "truncated"},
		{"total with trailing bytes", append(slices.Clip(total), 0), nil, "trailing bytes"},
		{"cell of version 8", []byte{8}, func(c *codec) { c.cell(new(int), new(baseline.Comparison)) }, "version 8, want 7"},
		{"head-wait classes out of order", []byte{2, 1, 'b', 1, 1, 'a', 1}, headWait, "keys out of order"},
		{"duplicate head-wait class", []byte{2, 1, 'a', 1, 1, 'a', 1}, headWait, "keys out of order"},
		{"class name longer than the payload", []byte{1, 9, 'a', 1}, headWait, "count exceeds"},
		{"sequence lengths out of order", []byte{2, 3, 1, 2, 1}, sequences, "keys out of order"},
	} {
		r := codec{b: tc.in}
		if tc.walk == nil {
			_, r.err = decodeTotal(tc.in)
		} else {
			tc.walk(&r)
			r.end()
		}
		if r.err == nil || !strings.Contains(r.err.Error(), tc.want) {
			t.Errorf("%s: % x: err = %v, want one mentioning %q", tc.name, tc.in, r.err, tc.want)
		}
	}
}

// headWait and sequences decode one map the way codec.result does.
func headWait(c *codec) {
	var m map[string]int64
	pairs(c, &m, c.str)
}

func sequences(c *codec) {
	var m map[int]uint64
	pairs(c, &m, func(k *int) { ints(c, k) })
}

// coreID is cfg's canonical JSON, the core component of its journal keys.
func coreID(t testing.TB, cfg ooo.Config) []byte {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// classID is a class's canonical JSON, as runGrid folds it into sweep keys.
func classID(t testing.TB, class Class) []byte {
	t.Helper()
	data, err := json.Marshal(class)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// taskOf is the cell task c ran as on core cfg, for decodeCell.
func taskOf(c Cell, cfg ooo.Config) cellTask {
	return cellTask{classCore: classCore{class: c.Benchmark.Class, cfg: cfg}, b: c.Benchmark, th: c.Threshold,
		engines: baseline.EngineConfigs(cfg, c.Threshold)}
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
			core := coreID(t, cfg)
			for _, b := range bs {
				out = append(out, cellKey(core, digests[b.Prog], 4))
			}
			for _, class := range Classes() {
				var ds [][]byte
				for _, b := range bs {
					if b.Class == class {
						ds = append(ds, digests[b.Prog])
					}
				}
				out = append(out, sweepKey(core, classID(t, class), ds, 4))
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

// TestProgramDigestCoversEveryField: changing any one field of one
// instruction changes its program's digest — in its lowest and its highest
// bit, so a field hashed narrower than its type fails too — and so does
// renaming the program or changing, adding or moving one memory word. The
// fields come from reflection over isa.Instruction, so a field added later
// and left out of digestProgram fails here.
func TestProgramDigestCoversEveryField(t *testing.T) {
	prog := func() *isa.Program {
		return &isa.Program{Name: "digest", Instrs: []isa.Instruction{
			{PC: 0x100, Op: isa.OpMOV, Dst: isa.R(1), Imm: 5},
			{PC: 0x104, Op: isa.OpADD, Dst: isa.R(2), Src1: isa.R(1), Src2: isa.R(1), Src3: isa.RegNone},
		}, Mem: map[uint64]uint64{0x40: 1, 0x48: 2}}
	}
	base := digestProgram(prog())
	typ := reflect.TypeOf(isa.Instruction{})
	for i := range typ.NumField() {
		for _, high := range []bool{false, true} {
			p := prog()
			f := reflect.ValueOf(&p.Instrs[1]).Elem().Field(i)
			bit := uint64(1)
			if high && f.Kind() != reflect.Bool {
				bit <<= f.Type().Bits() - 1
			}
			switch {
			case f.CanInt():
				f.SetInt(f.Int() ^ int64(bit))
			case f.CanUint():
				f.SetUint(f.Uint() ^ bit)
			case f.Kind() == reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("Instruction.%s: no way to change a %s field", typ.Field(i).Name, f.Type())
			}
			if bytes.Equal(digestProgram(p), base) {
				t.Errorf("changing Instruction.%s (high bit %v) left the digest unchanged", typ.Field(i).Name, high)
			}
		}
	}
	for name, edit := range map[string]func(*isa.Program){
		"renamed":             func(p *isa.Program) { p.Name += "x" },
		"memory word changed": func(p *isa.Program) { p.Mem[0x40]++ },
		"memory word added":   func(p *isa.Program) { p.Mem[0x50] = 0 },
		"memory word moved":   func(p *isa.Program) { delete(p.Mem, 0x48); p.Mem[0x50] = 2 },
	} {
		p := prog()
		if edit(p); bytes.Equal(digestProgram(p), base) {
			t.Errorf("%s: the digest is unchanged", name)
		}
	}
	if !bytes.Equal(digestProgram(prog()), base) {
		t.Fatal("two builds of one program digest differently")
	}
}

// BenchmarkWorkloadDigests times the cold work of WorkloadDigests on the
// quick and full suites: hashing every program's trace and memory image,
// done once per program at the start of a journaled run.
//
//	go test -run '^$' -bench WorkloadDigests -benchmem ./internal/harness
func BenchmarkWorkloadDigests(b *testing.B) {
	for _, s := range []struct {
		name  string
		scale Scale
	}{{"quick", Quick}, {"full", Full}} {
		bs := Benchmarks(s.scale)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, bm := range bs {
					digestProgram(bm.Prog)
				}
			}
		})
	}
}
