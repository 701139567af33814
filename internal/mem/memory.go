package mem

import (
	"maps"
	"math/bits"
	"slices"
)

// Memory is the functional backing store: a 64-bit word store keyed by
// 8-byte-aligned addresses. The trace builders lay data out at aligned
// addresses, so sub-word packing is not needed; vector accesses use two
// consecutive words.
//
// Representation: a dense word span covering the program's initial image
// (copied from a shared, read-only Image with two memmoves) plus a touched
// bitmap for exact snapshots, with a lazily allocated overflow map for the
// rare store landing outside the span. Loads and stores inside the span are
// two array indexations — the per-access map hashing the old representation
// paid in the simulator's hot loop is gone.
type Memory struct {
	base  uint64
	words []uint64
	touch []uint64
	n     int // touched words inside the span

	over map[uint64]uint64 // writes outside the span (lazily allocated)
}

// NewMemory returns an empty store.
func NewMemory() *Memory {
	return &Memory{}
}

// NewMemoryFrom copies an initial image (so a Program can be rerun). Callers
// running the same program repeatedly should build one Image and use
// NewMemoryFromImage instead; the result is indistinguishable.
func NewMemoryFrom(image map[uint64]uint64) *Memory {
	return NewMemoryFromImage(NewImage(image))
}

// NewMemoryFromImage instantiates a writable store from a shared read-only
// image: the span and touched bitmap are copied, the image is never mutated.
func NewMemoryFromImage(img *Image) *Memory {
	m := &Memory{}
	m.Reset(img)
	return m
}

// Reset reinitialises the store from img exactly as NewMemoryFromImage(img)
// would, reusing the span, the bitmap and the overflow map's storage: a
// recycled store keeps nothing of its previous contents, only its capacity.
func (m *Memory) Reset(img *Image) {
	m.base, m.n = img.base, img.n
	m.words = append(m.words[:0], img.words...)
	m.touch = append(m.touch[:0], img.touch...)
	clear(m.over)
	if img.fallback != nil {
		if m.over == nil {
			m.over = make(map[uint64]uint64, len(img.fallback))
		}
		for a, v := range img.fallback { //lint:allow simdeterminism order-independent: map copy
			m.over[a] = v
		}
		m.n = 0
	}
}

func align8(addr uint64) uint64 { return addr &^ 7 }

// Read64 returns the word at the (aligned) address; unwritten memory is zero.
//
//redsoc:hotpath
func (m *Memory) Read64(addr uint64) uint64 {
	a := align8(addr)
	if i := (a - m.base) / 8; a >= m.base && i < uint64(len(m.words)) {
		return m.words[i]
	}
	return m.over[a]
}

// Write64 stores a word.
//
//redsoc:hotpath
func (m *Memory) Write64(addr uint64, v uint64) {
	a := align8(addr)
	if i := (a - m.base) / 8; a >= m.base && i < uint64(len(m.words)) {
		m.words[i] = v
		if m.touch[i/64]&(1<<(i%64)) == 0 {
			m.touch[i/64] |= 1 << (i % 64)
			m.n++
		}
		return
	}
	if m.over == nil {
		m.over = make(map[uint64]uint64) //lint:allow hotpath overflow path: only stores outside the program's initial image reach here, once
	}
	m.over[a] = v
}

// Read128 returns the 128-bit value at addr (lo word first).
//
//redsoc:hotpath
func (m *Memory) Read128(addr uint64) (lo, hi uint64) {
	a := align8(addr)
	return m.Read64(a), m.Read64(a + 8)
}

// Write128 stores a 128-bit value.
//
//redsoc:hotpath
func (m *Memory) Write128(addr uint64, lo, hi uint64) {
	a := align8(addr)
	m.Write64(a, lo)
	m.Write64(a+8, hi)
}

// Snapshot copies the current contents (for end-of-run architectural
// comparison between schedulers): every word present in the initial image or
// written since, exactly as the map representation reported them.
func (m *Memory) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, m.Len())
	for wi, w := range m.touch {
		for w != 0 {
			b := w & (-w)
			i := wi*64 + bits.TrailingZeros64(b)
			out[m.base+uint64(i)*8] = m.words[i]
			w &^= b
		}
	}
	for a, v := range m.over { //lint:allow simdeterminism order-independent: map copy
		out[a] = v
	}
	return out
}

// Len returns the number of touched words.
func (m *Memory) Len() int { return m.n + len(m.over) }

// Frozen is a read-only copy of a Memory's contents at one instant, kept so
// that a later store can be compared against it (Matches) without building
// a Snapshot map. Nothing writes a Frozen after Freeze returns, so one may be
// shared across goroutines.
type Frozen struct{ m Memory }

// Freeze copies the current contents.
func (m *Memory) Freeze() *Frozen {
	return &Frozen{Memory{
		base:  m.base,
		words: slices.Clone(m.words),
		touch: slices.Clone(m.touch),
		n:     m.n,
		over:  maps.Clone(m.over),
	}}
}

// Matches reports whether m holds exactly f's contents, as Snapshot reports
// them: the same words present, with the same values. When both share one
// span — m was instantiated from the image f's source was — it is two slice
// compares and an overflow-map compare, and allocates nothing: an untouched
// span word is always zero, so equal spans and equal touched bitmaps mean
// equal snapshots. Stores of different layouts compare their snapshots.
func (m *Memory) Matches(f *Frozen) bool {
	o := &f.m
	if m.base != o.base || len(m.words) != len(o.words) {
		return maps.Equal(m.Snapshot(), o.Snapshot())
	}
	return slices.Equal(m.touch, o.touch) && slices.Equal(m.words, o.words) && maps.Equal(m.over, o.over)
}

// FirstDiff returns the lowest address at which m and f hold different
// words — a word only one of them holds counts — and whether there is one.
// It compares the span m and f share and the words outside it; stores of
// different layouts report no difference.
func (m *Memory) FirstDiff(f *Frozen) (addr uint64, ok bool) {
	o := &f.m
	if m.base != o.base || len(m.words) != len(o.words) {
		return 0, false
	}
	for i := range m.words {
		bit := uint64(1) << (i % 64)
		if m.touch[i/64]&bit != o.touch[i/64]&bit || m.words[i] != o.words[i] {
			addr, ok = m.base+uint64(i)*8, true
			break
		}
	}
	addr, ok = lowestMismatch(m.over, o.over, addr, ok)
	return lowestMismatch(o.over, m.over, addr, ok)
}

// lowestMismatch folds into (addr, ok) — the lowest differing address found
// so far, if any — every address src holds that dst lacks or holds another
// word at. A minimum does not depend on the order the addresses are visited.
func lowestMismatch(src, dst map[uint64]uint64, addr uint64, ok bool) (uint64, bool) {
	for a, v := range src { //lint:allow simdeterminism order-independent: equality and a minimum over both maps
		if w, in := dst[a]; (!in || w != v) && (!ok || a < addr) {
			addr, ok = a, true
		}
	}
	return addr, ok
}

// Snapshot returns the frozen contents as Memory.Snapshot would have.
func (f *Frozen) Snapshot() map[uint64]uint64 { return f.m.Snapshot() }

// Equal reports whether m holds exactly f's contents, as f.Snapshot would
// return them, without building the snapshot: m has as many words as f and
// each of f's words, with its value.
func (f *Frozen) Equal(m map[uint64]uint64) bool {
	o := &f.m
	if len(m) != o.Len() {
		return false
	}
	for wi, w := range o.touch {
		for w != 0 {
			b := w & (-w)
			i := wi*64 + bits.TrailingZeros64(b)
			if v, ok := m[o.base+uint64(i)*8]; !ok || v != o.words[i] {
				return false
			}
			w &^= b
		}
	}
	_, differ := lowestMismatch(o.over, m, 0, false)
	return !differ
}
