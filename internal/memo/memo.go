// Package memo is the bounded compute-once cache behind the per-program
// caches (the flat trace decode, the workload digest). Keys are assumed to
// name immutable values: an entry is built at most once per key no matter
// how many goroutines ask, and is never rebuilt while it stays cached.
package memo

import "sync"

// Cache maps keys to lazily built values. It holds the max most recently
// inserted keys; inserting beyond that evicts the oldest entry, which is
// simply built afresh if its key ever returns. The bound keeps long-running
// processes (a serve process, a fuzzer minting programs) from pinning every
// key they have seen, without refusing to cache new ones.
type Cache[K comparable, V any] struct {
	max int
	m   sync.Map // K -> *entry[V]

	mu    sync.Mutex // guards order, the FIFO behind the eviction bound
	order []K
}

type entry[V any] struct {
	once sync.Once
	v    V
}

// New returns an empty cache bounded at max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max}
}

// Get returns the value cached for k, calling build(k) to make it the first
// time. Concurrent first calls for one key share a single build. A hit
// allocates nothing.
func (c *Cache[K, V]) Get(k K, build func(K) V) V {
	v, ok := c.m.Load(k)
	if !ok {
		var loaded bool
		v, loaded = c.m.LoadOrStore(k, &entry[V]{})
		if !loaded {
			c.admit(k)
		}
	}
	e := v.(*entry[V])
	e.once.Do(func() { e.v = build(k) })
	return e.v
}

// admit records a fresh key and evicts the oldest beyond the bound.
func (c *Cache[K, V]) admit(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = append(c.order, k)
	if len(c.order) > c.max {
		c.m.Delete(c.order[0])
		copy(c.order, c.order[1:])
		c.order = c.order[:c.max]
	}
}
