// Package memo is the bounded compute-once cache behind the per-program
// caches (the flat trace decode, the workload digest) and a grid campaign's
// engine-run cache. Keys are assumed to name immutable values: an entry is
// built at most once per key no matter how many goroutines ask, and is never
// rebuilt while it stays cached.
package memo

import (
	"slices"
	"sync"
)

// Cache maps keys to lazily built values. It holds the max most recently
// inserted keys; inserting beyond that evicts the oldest entry, which is
// simply built afresh if its key ever returns. The bound keeps long-running
// processes (a serve process, a fuzzer minting programs) from pinning every
// key they have seen, without refusing to cache new ones.
type Cache[K comparable, V any] struct {
	max int
	m   sync.Map // K -> *entry[V]

	mu    sync.Mutex // guards order and serialises inserts and removals in m
	order []K        // FIFO of the keys in m, behind the eviction bound
}

type entry[V any] struct {
	once   sync.Once
	v      V
	failed bool // build panicked; the entry left the cache and holds no value
}

// New returns an empty cache bounded at max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max}
}

// Get returns the value cached for k, calling build(k) to make it the first
// time. Concurrent first calls for one key share a single build. A hit
// allocates nothing. A build that panics caches nothing: the panic reaches
// its caller, and the next Get of k — including one that was waiting on the
// failed build — builds afresh.
func (c *Cache[K, V]) Get(k K, build func(K) V) V {
	for {
		e := c.entry(k)
		e.once.Do(func() {
			built := false
			defer func() {
				if !built {
					e.failed = true
					c.drop(k, e)
				}
			}()
			e.v = build(k)
			built = true
		})
		if !e.failed {
			return e.v
		}
	}
}

// Len returns the number of keys cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// entry returns k's entry, inserting an empty one (and evicting the oldest
// beyond the bound) if k has none.
func (c *Cache[K, V]) entry(k K) *entry[V] {
	if v, ok := c.m.Load(k); ok {
		return v.(*entry[V])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, loaded := c.m.LoadOrStore(k, &entry[V]{})
	if !loaded {
		c.order = append(c.order, k)
		if len(c.order) > c.max {
			c.m.Delete(c.order[0])
			c.order = slices.Delete(c.order, 0, 1)
		}
	}
	return v.(*entry[V])
}

// drop removes a failed entry, unless eviction already removed it.
func (c *Cache[K, V]) drop(k K, e *entry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m.CompareAndDelete(k, e) {
		i := slices.Index(c.order, k)
		c.order = slices.Delete(c.order, i, i+1)
	}
}
