package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetBuildsOncePerKey races many first calls for one key: exactly one
// build runs and every caller sees its value.
func TestGetBuildsOncePerKey(t *testing.T) {
	c := New[int, *int](4)
	var builds atomic.Int64
	build := func(k int) *int { builds.Add(1); v := k * 10; return &v }
	var wg sync.WaitGroup
	got := make([]*int, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get(7, build)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, v := range got {
		if v != got[0] || *v != 70 {
			t.Fatalf("caller %d got %v, want the shared value 70", i, v)
		}
	}
}

// TestGetEvictsOldestBeyondBound: the (max+1)th key is cached, the oldest
// key gives up its slot and is rebuilt on return, and the FIFO never
// exceeds the bound.
func TestGetEvictsOldestBeyondBound(t *testing.T) {
	const max = 8
	c := New[int, *int](max)
	build := func(k int) *int { return &k }
	first := make([]*int, max+1)
	for k := range first {
		first[k] = c.Get(k, build)
	}
	if c.Get(max, build) != first[max] {
		t.Fatal("the key inserted beyond the bound must be served from cache on its second use")
	}
	if c.Get(max/2, build) != first[max/2] {
		t.Fatal("a mid-age key lost its slot")
	}
	c.mu.Lock()
	n := len(c.order)
	c.mu.Unlock()
	if n != max {
		t.Fatalf("FIFO tracks %d keys, bound is %d", n, max)
	}
	if _, ok := c.m.Load(0); ok {
		t.Fatal("the oldest key must have been evicted to admit the newest")
	}
	if c.Get(0, build) == first[0] {
		t.Fatal("an evicted key must be rebuilt")
	}
}

// TestGetRebuildsAfterPanic: a build that panics must not poison its key.
// The panic reaches the caller, a concurrent waiter on the failed build
// and every later Get build afresh, and the FIFO forgets the failed key.
func TestGetRebuildsAfterPanic(t *testing.T) {
	c := New[int, *int](4)
	started, release := make(chan struct{}), make(chan struct{})
	boom := func(int) *int { close(started); <-release; panic("boom") }
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(1, boom)
	}()
	<-started
	// A second caller races the failing build: it either waits on it and
	// sees it fail, or arrives after the entry was dropped. Both must build.
	waiter := make(chan *int)
	go func() { waiter <- c.Get(1, func(k int) *int { v := k * 10; return &v }) }()
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the failed build's caller recovered %v, want the build's panic", r)
	}
	if v := <-waiter; v == nil || *v != 10 {
		t.Fatalf("a caller waiting on the failed build got %v, want a fresh build's 10", v)
	}
	if v := c.Get(1, func(int) *int { t.Fatal("a successful rebuild must be cached"); return nil }); *v != 10 {
		t.Fatalf("cached rebuild = %d, want 10", *v)
	}
	c.mu.Lock()
	n := len(c.order)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("FIFO tracks %d keys after a failed and a good build of one key, want 1", n)
	}
}
