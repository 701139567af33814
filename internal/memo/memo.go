// Package memo is the compute-once map behind every value the repo derives
// once and shares: the per-program derivations kept on each isa.Program (the
// flat trace decode, the workload digests, the canonical final state) and a
// grid campaign's engine-run cache. Keys are assumed to name immutable
// values: an entry is built at most once per key no matter how many
// goroutines ask, and is never rebuilt. A Map holds no bound; it lives
// exactly as long as its owner, which is what keeps it from pinning values
// nobody can ask for any more.
package memo

import "sync"

// Map maps keys to lazily built values. The zero value is empty and ready to
// use; a Map must not be copied after first use. Keys of different types
// never collide, so one Map can serve several independent caches as long as
// each key type is always asked for the same value type.
type Map struct {
	m sync.Map // key -> *entry[V]
}

type entry[V any] struct {
	once   sync.Once
	v      V
	failed bool // build panicked or failed; the entry left the map
}

// Get returns the value m holds for k, calling build(k) to make it the
// first time. Concurrent first calls for one key share a single build. A hit
// allocates nothing. A build that panics caches nothing: the panic reaches
// its caller, and the next Get of k — including one that was waiting on the
// failed build — builds afresh.
func Get[K comparable, V any](m *Map, k K, build func(K) V) V {
	v, _ := TryGet(m, k, func(k K) (V, bool) { return build(k), true })
	return v
}

// TryGet is Get for a build that can fail without panicking: a build that
// returns false caches nothing, exactly like one that panics. Its caller
// gets the failed build's value and false; a caller that was waiting on it
// builds afresh with its own build function.
func TryGet[K comparable, V any](m *Map, k K, build func(K) (V, bool)) (V, bool) {
	for {
		v, ok := m.m.Load(k)
		if !ok {
			v, _ = m.m.LoadOrStore(k, &entry[V]{})
		}
		e := v.(*entry[V])
		mine := false
		e.once.Do(func() {
			mine = true
			kept := false
			defer func() {
				if !kept {
					e.failed = true
					m.m.CompareAndDelete(k, e)
				}
			}()
			e.v, kept = build(k)
		})
		if !e.failed {
			return e.v, true
		}
		if mine {
			return e.v, false
		}
	}
}
