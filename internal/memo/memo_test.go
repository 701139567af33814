package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetBuildsOncePerKey races many first calls for one key: exactly one
// build runs and every caller sees its value.
func TestGetBuildsOncePerKey(t *testing.T) {
	var m Map
	var builds atomic.Int64
	build := func(k int) *int { builds.Add(1); v := k * 10; return &v }
	var wg sync.WaitGroup
	got := make([]*int, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Get(&m, 7, build)
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

// TestGetRebuildsAfterPanic: a build that panics must not poison its key.
// The panic reaches the caller, a concurrent waiter on the failed build
// and every later Get build afresh, and the map keeps only the good build.
func TestGetRebuildsAfterPanic(t *testing.T) {
	var m Map
	started, release := make(chan struct{}), make(chan struct{})
	boom := func(int) *int { close(started); <-release; panic("boom") }
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		Get(&m, 1, boom)
	}()
	<-started
	// A second caller races the failing build: it either waits on it and
	// sees it fail, or arrives after the entry was dropped. Both must build.
	waiter := make(chan *int)
	go func() { waiter <- Get(&m, 1, func(k int) *int { v := k * 10; return &v }) }()
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the failed build's caller recovered %v, want the build's panic", r)
	}
	if v := <-waiter; v == nil || *v != 10 {
		t.Fatalf("a caller waiting on the failed build got %v, want a fresh build's 10", v)
	}
	if v := Get(&m, 1, func(int) *int { t.Fatal("a successful rebuild must be cached"); return nil }); *v != 10 {
		t.Fatalf("cached rebuild = %d, want 10", *v)
	}
	n := 0
	m.m.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("the map holds %d entries after a failed and a good build of one key, want 1", n)
	}
}

// TestTryGetRebuildsAfterFailure: a build that reports failure caches
// nothing, like one that panics. Its caller gets the failed value and false,
// a waiter on it builds afresh with its own build function, and the map
// keeps only the good build.
func TestTryGetRebuildsAfterFailure(t *testing.T) {
	var m Map
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v  int
		ok bool
	}
	failed := make(chan result)
	go func() {
		v, ok := TryGet(&m, 1, func(int) (int, bool) { close(started); <-release; return -1, false })
		failed <- result{v, ok}
	}()
	<-started
	waiter := make(chan result)
	go func() {
		v, ok := TryGet(&m, 1, func(k int) (int, bool) { return k * 10, true })
		waiter <- result{v, ok}
	}()
	close(release)
	if r := <-failed; r != (result{-1, false}) {
		t.Fatalf("the failed build's caller got %+v, want its own value -1 and false", r)
	}
	if r := <-waiter; r != (result{10, true}) {
		t.Fatalf("a caller waiting on the failed build got %+v, want a fresh build's 10", r)
	}
	if v := Get(&m, 1, func(int) int { t.Error("a successful rebuild must be cached"); return 0 }); v != 10 {
		t.Fatalf("cached rebuild = %d, want 10", v)
	}
}
