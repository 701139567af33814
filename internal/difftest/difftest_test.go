package difftest

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"redsoc/internal/isa"
	"redsoc/internal/workload"
)

// goldenSeeds is the default random-program budget; each of its seeds, and
// each deterministic case, has a line in testdata/golden.txt.
const goldenSeeds = 300

// diffN returns the random-program budget: REDSOC_DIFF_N overrides the
// default (set it to 10000+ for a soak run before releasing a scheduler
// change; the default keeps the suite under a few seconds).
func diffN(t *testing.T) int {
	if v := os.Getenv("REDSOC_DIFF_N"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("REDSOC_DIFF_N=%q is not a positive integer", v)
		}
		return n
	}
	return goldenSeeds
}

// loadGolden reads testdata/golden.txt: program key -> one digest per pair,
// in Pairs order.
func loadGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	for _, p := range Pairs() {
		names = append(names, p.Name)
	}
	golden := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case fields[0] == "pairs":
			if got := strings.Join(fields[1:], " "); got != strings.Join(names, " ") {
				t.Fatalf("golden pairs %q, want %q", got, strings.Join(names, " "))
			}
		case len(fields) != 1+len(names):
			t.Fatalf("golden line for %s has %d digests, want %d", fields[0], len(fields)-1, len(names))
		default:
			golden[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := goldenSeeds + len(deterministicCases()); len(golden) != want {
		t.Fatalf("golden file has %d programs, want %d", len(golden), want)
	}
	return golden
}

// checkProgram runs prog through every pair and, when want is non-nil,
// compares the digests with the program's golden line. A mismatch names the
// program and pair and prints the replacement line.
func checkProgram(t *testing.T, key string, prog *isa.Program, want []string) {
	t.Helper()
	pairs := Pairs()
	got := make([]string, len(pairs))
	for i, p := range pairs {
		d, err := Compare(p, prog)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[i] = d.String()
	}
	for i, p := range pairs {
		if want != nil && got[i] != want[i] {
			t.Fatalf("%s %s: digest %s, golden %s; replacement line:\n%s %s",
				key, p.Name, got[i], want[i], key, strings.Join(got, " "))
		}
	}
}

// TestDifferentialRandomPrograms feeds generated programs through every
// pair. The golden seeds and small budgets run every pair per program; soak
// budgets rotate through the pairs beyond them so the program count
// dominates.
func TestDifferentialRandomPrograms(t *testing.T) {
	n := diffN(t)
	golden := loadGolden(t)
	pairs := Pairs()
	for i := 0; i < n; i++ {
		seed := int64(1e9 + i)
		key := strconv.FormatInt(seed, 10)
		prog := Generate(seed, 48+(i%5)*48)
		if want := golden[key]; want != nil || n <= 1000 {
			checkProgram(t, key, prog, want)
			continue
		}
		if _, err := Compare(pairs[i%len(pairs)], prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// deterministicCases are hand-written shapes aimed at the mechanisms most
// likely to diverge under a scheduler-representation rewrite.
func deterministicCases() map[string]*isa.Program {
	cases := map[string]*isa.Program{}

	// A recycling/fusion ladder: a dense single-cycle chain where ReDSOC
	// recycles slack and MOS fuses consumer into producer cycles.
	b := workload.NewBuilder("chain")
	b.MovImm(isa.R(1), 0x0f0f).MovImm(isa.R(2), 3)
	for i := 0; i < 24; i++ {
		b.At(0x2000).Op3(isa.OpEOR, isa.R(1), isa.R(1), isa.R(2)).Auto()
	}
	cases["fusion-chain"] = b.Build()

	// Three-producer operations back to back: MLA and VMLA exercise the
	// 3-source rename path and last-arrival prediction over srcs[2].
	b = workload.NewBuilder("three-producer")
	b.MovImm(isa.R(1), 7).MovImm(isa.R(2), 9).MovImm(isa.R(3), 11)
	b.MovImm(isa.V(1), 5).MovImm(isa.V(2), 6).MovImm(isa.V(3), 12)
	for i := 0; i < 8; i++ {
		b.MulAcc(isa.R(3), isa.R(1), isa.R(2), isa.R(3))
		b.VecMulAcc(isa.Lane16, isa.V(3), isa.V(1), isa.V(2), isa.V(3))
		b.Op3(isa.OpADD, isa.R(1), isa.R(3), isa.R(2))
	}
	cases["three-producer"] = b.Build()

	// Memory dependences: stores feeding loads at the same, overlapping and
	// disjoint addresses, with the store data riding a live ALU chain.
	b = workload.NewBuilder("memdep")
	b.InitMem(0x8000, 0xdead).InitMem(0x8008, 0xbeef)
	b.MovImm(isa.R(1), 0x100).MovImm(isa.R(4), 1)
	for i := 0; i < 10; i++ {
		b.Op3(isa.OpADD, isa.R(1), isa.R(1), isa.R(4))
		b.Store(isa.R(1), isa.R(2), 0x8000)
		b.Load(isa.R(3), isa.R(2), 0x8000) // forwarded from the store above
		b.Load(isa.R(5), isa.R(2), 0x8008) // independent of the store
		b.Op3(isa.OpEOR, isa.R(4), isa.R(3), isa.R(5))
	}
	cases["memdep"] = b.Build()

	// Flag plumbing and redirects: compare/branch pairs with carry chains
	// threaded between them (ADC/SBC read the flags rename slot).
	b = workload.NewBuilder("flags-redirect")
	b.MovImm(isa.R(1), 1).MovImm(isa.R(2), ^uint64(0))
	for i := 0; i < 8; i++ {
		b.Op3(isa.OpADD, isa.R(2), isa.R(2), isa.R(1)) // sets no flags; data only
		b.Cmp(isa.R(2), isa.R(1))
		b.At(0x9000).Branch(i%3 == 0).Auto()
		b.Op3(isa.OpADC, isa.R(1), isa.R(1), isa.R(2))
		b.Op3(isa.OpSBC, isa.R(2), isa.R(2), isa.R(1))
	}
	cases["flags-redirect"] = b.Build()

	// Long-latency pressure: DIV (including divide-by-zero) and FP ops
	// holding FUs while a single-cycle chain recycles around them.
	b = workload.NewBuilder("long-latency")
	b.MovImm(isa.R(1), 1<<40).MovImm(isa.R(2), 17).MovImm(isa.R(3), 0)
	for i := 0; i < 6; i++ {
		b.Op3(isa.OpDIV, isa.R(4), isa.R(1), isa.R(2))
		b.Op3(isa.OpDIV, isa.R(5), isa.R(1), isa.R(3)) // divide by zero
		b.Op3(isa.OpFMUL, isa.R(6), isa.R(4), isa.R(2))
		b.Op3(isa.OpEOR, isa.R(1), isa.R(1), isa.R(4))
		b.Op3(isa.OpEOR, isa.R(1), isa.R(1), isa.R(6))
	}
	cases["long-latency"] = b.Build()

	return cases
}

// TestDifferentialDeterministicCases runs the hand-written shapes through
// every configuration pair against their golden lines.
func TestDifferentialDeterministicCases(t *testing.T) {
	golden := loadGolden(t)
	for name, prog := range deterministicCases() {
		t.Run(name, func(t *testing.T) {
			want := golden[name]
			if want == nil {
				t.Errorf("%s has no golden line", name)
			}
			checkProgram(t, name, prog, want)
		})
	}
}

// FuzzDifferential lets the fuzzer steer the generator: any (seed, shape,
// pair) triple must commit exactly what the interpreter commits. CI
// runs this as a short smoke; crashers minimize to a (seed, n) pair that
// reproduces locally via Generate.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(64))
	f.Add(int64(42), uint8(1), uint16(96))
	f.Add(int64(7), uint8(2), uint16(48))
	f.Add(int64(1e9), uint8(3), uint16(144))
	f.Add(int64(-3), uint8(4), uint16(192))
	pairs := Pairs()
	f.Fuzz(func(t *testing.T, seed int64, pairIdx uint8, n uint16) {
		size := 8 + int(n)%240
		p := pairs[int(pairIdx)%len(pairs)]
		if _, err := Compare(p, Generate(seed, size)); err != nil {
			t.Fatal(err)
		}
	})
}
