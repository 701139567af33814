// Package pool is the cross-package half of the call-graph fixtures: an
// entry pool whose cold paths allocate. None of its functions carry the
// hotpath marker, so every finding here must arrive transitively, from a
// marked caller in package hot.
package pool

type Entry struct{ Seq int64 }

// Grab allocates when the free list is cold.
func Grab(free []*Entry) *Entry {
	if len(free) > 0 {
		return free[len(free)-1]
	}
	return new(Entry)
}

// Peek is allocation-free.
func Peek(free []*Entry) *Entry {
	if len(free) == 0 {
		return nil
	}
	return free[0]
}

// Refill allocates, but under an audit: the warm-up fill is paid once, so the
// audit must hold for transitive callers too — an audited site does not
// re-surface as a finding in every marked function that reaches it.
func Refill(free []*Entry, n int) []*Entry {
	for i := 0; i < n; i++ {
		free = append(free, new(Entry)) //lint:allow hotpath warm-up fill, amortized over the run
	}
	return free
}
