// Package mem models the Table I memory system: a 64 kB L1 and a 2 MB L2
// with a next-line prefetcher, plus the functional backing store the
// simulator executes loads and stores against. Latency classes follow the
// paper's Fig. 10 characterization: MEM-LL are L1 hits, MEM-HL are L1 misses.
package mem

import "fmt"

// Level identifies where an access was satisfied.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelDRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	}
	return "DRAM"
}

// Config describes the cache hierarchy. Zero fields take defaults via
// DefaultConfig.
type Config struct {
	L1Bytes, L1Ways  int
	L2Bytes, L2Ways  int
	LineBytes        int
	L1Latency        int // load-to-use cycles on an L1 hit
	L2Latency        int // total cycles on an L2 hit
	DRAMLatency      int // total cycles on a DRAM access
	NextLinePrefetch bool
}

// Validate rejects cache geometries newCache would refuse, so user-supplied
// configurations fail with an error before the constructors assert.
func (c Config) Validate() error {
	if c.LineBytes == 0 {
		return nil // zero config takes DefaultConfig wholesale
	}
	for _, lvl := range []struct {
		name        string
		bytes, ways int
	}{{"L1", c.L1Bytes, c.L1Ways}, {"L2", c.L2Bytes, c.L2Ways}} {
		if lvl.bytes <= 0 || lvl.ways <= 0 || c.LineBytes <= 0 || lvl.bytes%(lvl.ways*c.LineBytes) != 0 {
			return fmt.Errorf("mem: invalid %s geometry %d/%d/%d", lvl.name, lvl.bytes, lvl.ways, c.LineBytes)
		}
		if sets := lvl.bytes / (lvl.ways * c.LineBytes); sets&(sets-1) != 0 {
			return fmt.Errorf("mem: %s sets %d not a power of two", lvl.name, sets)
		}
	}
	if c.L1Latency < 1 || c.L2Latency < 1 || c.DRAMLatency < 1 {
		return fmt.Errorf("mem: latencies must be positive")
	}
	return nil
}

// DefaultConfig is the Table I memory system (64kB/2MB with prefetch).
func DefaultConfig() Config {
	return Config{
		L1Bytes: 64 << 10, L1Ways: 4,
		L2Bytes: 2 << 20, L2Ways: 8,
		LineBytes: 64,
		L1Latency: 2, L2Latency: 12, DRAMLatency: 90,
		NextLinePrefetch: true,
	}
}

// cache is one set-associative level with LRU replacement.
type cache struct {
	sets     int
	ways     int
	lineBits uint
	tags     []uint64 // sets*ways entries
	valid    []bool
	lru      []uint8 // age per way; 0 = most recent
}

func newCache(bytes, ways, line int) *cache {
	if bytes <= 0 || ways <= 0 || line <= 0 || bytes%(ways*line) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %d/%d/%d", bytes, ways, line))
	}
	sets := bytes / (ways * line)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache sets %d not a power of two", sets))
	}
	lb := uint(0)
	for 1<<lb < line {
		lb++
	}
	return &cache{
		sets: sets, ways: ways, lineBits: lb,
		tags:  make([]uint64, sets*ways),
		valid: make([]bool, sets*ways),
		lru:   make([]uint8, sets*ways),
	}
}

// reset invalidates every line. Tags and LRU ages are deliberately left
// stale: every read of either is gated on the valid bit (a way rejoins the
// LRU order with age 0 when install touches it), so clearing the valid bits
// alone restores a fresh cache's observable behavior.
func (c *cache) reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

func (c *cache) setOf(addr uint64) int {
	return int((addr >> c.lineBits) % uint64(c.sets))
}

func (c *cache) tagOf(addr uint64) uint64 {
	return addr >> c.lineBits / uint64(c.sets)
}

// lookup probes the cache, updating LRU on a hit.
func (c *cache) lookup(addr uint64) bool {
	set, tag := c.setOf(addr), c.tagOf(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	return false
}

// install brings the line in, evicting the LRU way.
func (c *cache) install(addr uint64) {
	set, tag := c.setOf(addr), c.tagOf(addr)
	base := set * c.ways
	victim, worst := 0, uint8(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			victim, worst = w, c.lru[base+w]
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.touch(base, victim)
}

func (c *cache) touch(base, way int) {
	for w := 0; w < c.ways; w++ {
		if c.lru[base+w] < 255 {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// Stats counts per-level outcomes.
type Stats struct {
	Accesses, L1Hits, L2Hits, DRAMAccesses, Prefetches uint64
}

// Hierarchy is the two-level cache timing model.
type Hierarchy struct {
	cfg      Config
	l1       *cache
	l2       *cache
	stats    Stats
	pfTagged map[uint64]struct{} // lines brought in by prefetch, not yet used
}

// NewHierarchy builds a cold hierarchy.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.LineBytes == 0 {
		cfg = DefaultConfig()
	}
	return &Hierarchy{
		cfg:      cfg,
		l1:       newCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
		l2:       newCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
		pfTagged: make(map[uint64]struct{}),
	}
}

// Reset returns the hierarchy to the state NewHierarchy(cfg) builds, reusing
// its line storage when cfg has the same geometry (sizes, ways, line): a 2 MB
// L2 alone carries ~330 kB of tag/valid/LRU metadata. Latencies and the
// prefetch switch are not geometry; they are simply adopted. Reuse is
// observably identical to a fresh build: clearing the valid bits (which gate
// every tag and LRU read), the counters and the prefetch tags restores a cold
// hierarchy.
func (h *Hierarchy) Reset(cfg Config) {
	if cfg.LineBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.geometry() != h.cfg.geometry() {
		h.l1 = newCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
		h.l2 = newCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	} else {
		h.l1.reset()
		h.l2.reset()
	}
	h.cfg = cfg
	h.stats = Stats{}
	clear(h.pfTagged)
}

// geometry is the part of a Config that sizes the caches' storage.
func (c Config) geometry() [5]int {
	return [5]int{c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways, c.LineBytes}
}

func (h *Hierarchy) lineOf(addr uint64) uint64 {
	return addr / uint64(h.cfg.LineBytes)
}

// prefetchNext runs the tagged next-line prefetcher: bring in the following
// line (zero modeled latency, the usual idealization for a stream
// prefetcher) and tag it so its first use triggers the next prefetch.
func (h *Hierarchy) prefetchNext(addr uint64) {
	if !h.cfg.NextLinePrefetch {
		return
	}
	next := addr + uint64(h.cfg.LineBytes)
	if h.l1.lookup(next) {
		return
	}
	h.l2.install(next)
	h.l1.install(next)
	h.pfTagged[h.lineOf(next)] = struct{}{}
	h.stats.Prefetches++
}

// Access simulates one reference and returns its latency in cycles and the
// level that served it. Misses install the line at every level; the tagged
// next-line prefetcher fires on demand misses and on the first use of a
// prefetched line, so it tracks sequential streams without re-missing.
func (h *Hierarchy) Access(addr uint64) (cycles int, level Level) {
	h.stats.Accesses++
	if h.l1.lookup(addr) {
		line := h.lineOf(addr)
		if _, tagged := h.pfTagged[line]; tagged {
			delete(h.pfTagged, line)
			h.prefetchNext(addr)
		}
		h.stats.L1Hits++
		return h.cfg.L1Latency, LevelL1
	}
	if h.l2.lookup(addr) {
		h.stats.L2Hits++
		h.l1.install(addr)
		h.prefetchNext(addr)
		return h.cfg.L2Latency, LevelL2
	}
	h.stats.DRAMAccesses++
	h.l2.install(addr)
	h.l1.install(addr)
	h.prefetchNext(addr)
	return h.cfg.DRAMLatency, LevelDRAM
}

// Stats returns the access counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1MissRate returns the fraction of accesses missing L1 (the paper's
// MEM-HL fraction).
func (s Stats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.L1Hits)/float64(s.Accesses)
}
