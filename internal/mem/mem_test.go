package mem

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x100) != 0 {
		t.Fatal("unwritten memory must read zero")
	}
	m.Write64(0x100, 42)
	if m.Read64(0x100) != 42 {
		t.Fatal("write lost")
	}
	// Sub-word addresses alias their aligned word.
	if m.Read64(0x104) != 42 {
		t.Fatal("aligned aliasing broken")
	}
}

func TestMemory128(t *testing.T) {
	m := NewMemory()
	m.Write128(0x200, 1, 2)
	lo, hi := m.Read128(0x200)
	if lo != 1 || hi != 2 {
		t.Fatalf("Read128 = %d,%d", lo, hi)
	}
	if m.Read64(0x208) != 2 {
		t.Fatal("high word must live at addr+8")
	}
}

func TestMemorySnapshotIsCopy(t *testing.T) {
	m := NewMemoryFrom(map[uint64]uint64{0x10: 7})
	snap := m.Snapshot()
	m.Write64(0x10, 9)
	if snap[0x10] != 7 {
		t.Fatal("snapshot must not alias live memory")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Property: read-after-write returns the written value for arbitrary
// aligned addresses.
func TestMemoryRAWProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint64) bool {
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyColdMissThenHit(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	lat, lvl := h.Access(0x1000)
	if lvl != LevelDRAM || lat != DefaultConfig().DRAMLatency {
		t.Fatalf("cold access = %d cycles at %v", lat, lvl)
	}
	lat, lvl = h.Access(0x1000)
	if lvl != LevelL1 || lat != DefaultConfig().L1Latency {
		t.Fatalf("second access = %d cycles at %v", lat, lvl)
	}
	// Same line, different word: still an L1 hit.
	if _, lvl := h.Access(0x1008); lvl != LevelL1 {
		t.Fatal("same-line access must hit L1")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.Access(0x1000) // miss; prefetches 0x1040
	if _, lvl := h.Access(0x1040); lvl != LevelL1 {
		t.Fatal("next line must have been prefetched into L1")
	}
	if h.Stats().Prefetches == 0 {
		t.Fatal("prefetch counter not incremented")
	}
	// Without prefetch the next line misses.
	cfg.NextLinePrefetch = false
	h2 := NewHierarchy(cfg)
	h2.Access(0x1000)
	if _, lvl := h2.Access(0x1040); lvl == LevelL1 {
		t.Fatal("prefetch disabled but next line hit L1")
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	h.Access(0x0)
	// Evict set 0 of L1 by touching L1Ways+1 conflicting lines; L1 has
	// 64kB/4way/64B = 256 sets, so stride = 256*64 = 16kB.
	stride := uint64(cfg.L1Bytes / cfg.L1Ways)
	for i := 1; i <= cfg.L1Ways; i++ {
		h.Access(uint64(i) * stride)
	}
	lat, lvl := h.Access(0x0)
	if lvl != LevelL2 {
		t.Fatalf("evicted line must hit L2, got %v (%d cycles)", lvl, lat)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	stride := uint64(cfg.L1Bytes / cfg.L1Ways)
	h.Access(0x0)
	for i := 1; i <= cfg.L1Ways-1; i++ {
		h.Access(uint64(i) * stride)
		h.Access(0x0) // keep the hot line most recent
	}
	h.Access(uint64(cfg.L1Ways) * stride) // evicts an LRU victim, not 0x0
	if _, lvl := h.Access(0x0); lvl != LevelL1 {
		t.Fatal("hot line must survive under LRU")
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	h.Access(0x0)
	h.Access(0x0)
	h.Access(0x0)
	s := h.Stats()
	if s.Accesses != 3 || s.L1Hits != 2 || s.DRAMAccesses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.L1MissRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("L1MissRate = %v", got)
	}
}

func TestWorkingSetMissBehaviour(t *testing.T) {
	// A working set far larger than L1 but inside L2 should mostly hit L2 on
	// the second pass (with prefetch disabled to make the point sharply).
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	lines := (256 << 10) / cfg.LineBytes // 256kB working set
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(uint64(i * cfg.LineBytes))
		}
	}
	s := h.Stats()
	if s.L2Hits == 0 {
		t.Fatal("second pass over a 256kB set must hit L2")
	}
	if s.DRAMAccesses > uint64(lines)+8 {
		t.Fatalf("DRAM accesses %d imply L2 is not retaining the set", s.DRAMAccesses)
	}
}

func TestSequentialStreamPrefetchEffectiveness(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	for i := 0; i < 4096; i++ {
		h.Access(uint64(i * 8)) // sequential word stream
	}
	s := h.Stats()
	if rate := s.L1MissRate(); rate > 0.02 {
		t.Fatalf("sequential stream with next-line prefetch misses %.3f of accesses", rate)
	}
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry must panic")
		}
	}()
	newCache(1000, 3, 64)
}

func TestRandomAccessesDoNotPanic(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Access(rng.Uint64() % (1 << 30))
	}
}

// TestMemoryResetMatchesFresh: a store reset from an image reads, snapshots
// and counts exactly like one instantiated from it, whatever it held before —
// span writes, overflow writes, or a sparse (map-backed) image.
func TestMemoryResetMatchesFresh(t *testing.T) {
	dense := NewImage(map[uint64]uint64{0x100: 1, 0x118: 2})
	sparse := NewImage(map[uint64]uint64{0x10: 3, 0x10 + 8*(maxSpanWords+1): 4})
	for _, img := range []*Image{dense, sparse, NewImage(nil)} {
		for _, prev := range []*Image{dense, sparse, NewImage(nil)} {
			m := NewMemoryFromImage(prev)
			m.Write64(0x108, 5)    // inside the dense span
			m.Write64(0x9000, 6)   // outside every span: overflow map
			m.Write128(0x10, 7, 8) // sparse image word
			m.Reset(img)
			fresh := NewMemoryFromImage(img)
			if m.Len() != fresh.Len() {
				t.Fatalf("reset Len %d, fresh %d", m.Len(), fresh.Len())
			}
			got, want := m.Snapshot(), fresh.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("reset snapshot %v, fresh %v", got, want)
			}
			for a, v := range want { //lint:allow simdeterminism order-independent: per-key equality
				if got[a] != v {
					t.Fatalf("reset snapshot %v, fresh %v", got, want)
				}
			}
			for _, a := range []uint64{0x100, 0x108, 0x118, 0x9000, 0x10, 0x18} {
				if m.Read64(a) != fresh.Read64(a) {
					t.Fatalf("reset reads %#x = %d, fresh %d", a, m.Read64(a), fresh.Read64(a))
				}
			}
		}
	}
}

// TestHierarchyResetMatchesFresh: a reset hierarchy behaves exactly like a
// new one of the target configuration, whether it keeps its line storage
// (same geometry, other latencies) or must rebuild it (other geometry).
func TestHierarchyResetMatchesFresh(t *testing.T) {
	slow := DefaultConfig()
	slow.L2Latency, slow.DRAMLatency = 30, 200
	small := DefaultConfig()
	small.L2Bytes = 256 << 10
	rng := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 4000)
	for i := range addrs {
		addrs[i] = rng.Uint64() % (4 << 20)
	}
	for _, cfg := range []Config{slow, small, DefaultConfig()} {
		h := NewHierarchy(DefaultConfig())
		for _, a := range addrs {
			h.Access(a)
		}
		h.Reset(cfg)
		fresh := NewHierarchy(cfg)
		if h.Config() != cfg {
			t.Fatalf("reset hierarchy has config %+v, want %+v", h.Config(), cfg)
		}
		for i, a := range addrs {
			gc, gl := h.Access(a)
			wc, wl := fresh.Access(a)
			if gc != wc || gl != wl {
				t.Fatalf("access %d (%#x): reset gives %d cycles at %v, fresh %d at %v", i, a, gc, gl, wc, wl)
			}
		}
		if h.Stats() != fresh.Stats() {
			t.Fatalf("reset stats %+v, fresh %+v", h.Stats(), fresh.Stats())
		}
	}
}

// TestMemoryMatchesFrozen pins Matches to Snapshot equality: a store matches
// a frozen copy exactly when their snapshots are equal, on a dense image, a
// sparse (map-backed) image, after a store outside the span, and after a
// store of the value a word already reads — which adds the word to the
// snapshot, so it must also break the match.
func TestMemoryMatchesFrozen(t *testing.T) {
	dense := NewImage(map[uint64]uint64{0x100: 1, 0x118: 2, 0x200: 3})
	sparse := NewImage(map[uint64]uint64{0x10: 3, 0x10 + 8*(maxSpanWords+1): 4})
	if sparse.fallback == nil {
		t.Fatal("premise: the sparse image must take the fallback path")
	}
	writes := []struct {
		name string
		do   func(m *Memory)
	}{
		{"none", func(*Memory) {}},
		{"span word", func(m *Memory) { m.Write64(0x118, 9) }},
		{"outside the span", func(m *Memory) { m.Write64(0x9000, 6) }},
		{"initial value again", func(m *Memory) { m.Write64(0x100, 1) }},
		{"zero into an untouched word", func(m *Memory) { m.Write64(0x108, 0) }},
		{"sparse word", func(m *Memory) { m.Write64(0x10, 8) }},
	}
	for _, img := range []*Image{dense, sparse, NewImage(nil)} {
		for _, fw := range writes {
			ref := NewMemoryFromImage(img)
			fw.do(ref)
			f := ref.Freeze()
			fw.do(ref) // the copy is independent of its source
			ref.Write64(0x9008, 1)
			if !maps.Equal(f.Snapshot(), NewMemoryFromImage(img).apply(fw.do).Snapshot()) {
				t.Fatalf("%s: the frozen copy changed with its source", fw.name)
			}
			for _, mw := range writes {
				m := NewMemoryFromImage(img).apply(mw.do)
				want := maps.Equal(m.Snapshot(), f.Snapshot())
				if got := m.Matches(f); got != want {
					t.Errorf("image %d words, frozen after %q, live after %q: Matches = %v, snapshots equal = %v",
						img.Len(), fw.name, mw.name, got, want)
				}
				if got := f.Equal(m.Snapshot()); got != want {
					t.Errorf("image %d words, frozen after %q, live after %q: Equal = %v, snapshots equal = %v",
						img.Len(), fw.name, mw.name, got, want)
				}
			}
		}
	}
	// The same contents in another layout still match.
	m := NewMemoryFrom(map[uint64]uint64{0x100: 1, 0x118: 2, 0x200: 3})
	other := NewMemory()
	for _, a := range []uint64{0x200, 0x118, 0x100} {
		other.Write64(a, m.Read64(a))
	}
	if !other.Matches(m.Freeze()) {
		t.Error("equal contents in an overflow-only store must match a span-backed frozen copy")
	}
}

// TestMemoryFirstDiff: FirstDiff names the lowest address at which a store
// and a frozen copy of its layout differ — in value, or in whether the word
// is present at all — inside the span or outside it, and nothing when the
// layouts differ.
func TestMemoryFirstDiff(t *testing.T) {
	img := NewImage(map[uint64]uint64{0x100: 1, 0x118: 2, 0x200: 3})
	f := NewMemoryFromImage(img).Freeze()
	for _, tc := range []struct {
		name string
		do   func(m *Memory)
		addr uint64
		ok   bool
	}{
		{"none", func(*Memory) {}, 0, false},
		{"two words", func(m *Memory) { m.Write64(0x200, 9); m.Write64(0x118, 7) }, 0x118, true},
		{"zero into an untouched word", func(m *Memory) { m.Write64(0x108, 0) }, 0x108, true},
		{"outside the span", func(m *Memory) { m.Write64(0x9000, 6) }, 0x9000, true},
		{"two words outside the span", func(m *Memory) { m.Write64(0x9000, 6); m.Write64(0x8800, 5) }, 0x8800, true},
		{"below the span before one inside it", func(m *Memory) { m.Write64(0x200, 9); m.Write64(0x8, 4) }, 0x8, true},
		{"inside the span before one above it", func(m *Memory) { m.Write64(0x9000, 6); m.Write64(0x118, 7) }, 0x118, true},
	} {
		addr, ok := NewMemoryFromImage(img).apply(tc.do).FirstDiff(f)
		if addr != tc.addr || ok != tc.ok {
			t.Errorf("%s: FirstDiff = %#x, %v; want %#x, %v", tc.name, addr, ok, tc.addr, tc.ok)
		}
	}
	held := NewMemoryFromImage(img).apply(func(m *Memory) { m.Write64(0x9000, 6) }).Freeze()
	if addr, ok := NewMemoryFromImage(img).FirstDiff(held); addr != 0x9000 || !ok {
		t.Errorf("a word only the frozen copy holds: FirstDiff = %#x, %v; want 0x9000, true", addr, ok)
	}
	if _, ok := NewMemory().FirstDiff(f); ok {
		t.Error("stores of different layouts must report no span difference")
	}
}

// TestMemoryMatchesAllocatesNothing: comparing a store with a frozen copy of
// its own layout, or a frozen copy with its snapshot, allocates nothing.
func TestMemoryMatchesAllocatesNothing(t *testing.T) {
	m := NewMemoryFrom(map[uint64]uint64{0x100: 1, 0x118: 2})
	m.Write64(0x9000, 6)
	f := m.Freeze()
	if n := testing.AllocsPerRun(100, func() {
		if !m.Matches(f) {
			t.Fatal("a store must match its own frozen copy")
		}
	}); n != 0 {
		t.Fatalf("Matches allocated %.0f times per call", n)
	}
	snap := f.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		if !f.Equal(snap) {
			t.Fatal("a frozen copy must equal its own snapshot")
		}
	}); n != 0 {
		t.Fatalf("Equal allocated %.0f times per call", n)
	}
}

// apply runs do on m and returns m.
func (m *Memory) apply(do func(*Memory)) *Memory {
	do(m)
	return m
}
