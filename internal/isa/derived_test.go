package isa

import (
	"sync"
	"sync/atomic"
	"testing"
)

type testKey struct {
	class uint8
	name  string
}

// TestDerivedBuildsOncePerProgram races many first calls for one program
// and key: exactly one build runs, every caller sees its value, and another
// key or another program builds its own.
func TestDerivedBuildsOncePerProgram(t *testing.T) {
	p := &Program{Name: "derived"}
	var builds atomic.Int64
	build := func(p *Program) *string { builds.Add(1); v := p.Name; return &v }
	var wg sync.WaitGroup
	got := make([]*string, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Derived(p, testKey{1, "a"}, build)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one program and key, want 1", n)
	}
	for i, v := range got {
		if v != got[0] || *v != "derived" {
			t.Fatalf("caller %d got %v, want the shared value", i, v)
		}
	}
	if Derived(p, testKey{1, "b"}, build) == got[0] {
		t.Error("another key shared the first key's value")
	}
	if Derived(&Program{Name: "derived"}, testKey{1, "a"}, build) == got[0] {
		t.Error("another program shared the first program's value")
	}
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds for three (program, key) pairs, want 3", n)
	}
}

// TestDerivedRebuildsAfterPanic: a build that panics caches nothing. The
// panic reaches the caller, a concurrent waiter on the failed build and
// every later call build afresh, and a successful rebuild is cached.
func TestDerivedRebuildsAfterPanic(t *testing.T) {
	p := &Program{Name: "panics"}
	key := testKey{2, "boom"}
	started, release := make(chan struct{}), make(chan struct{})
	boom := func(*Program) *int { close(started); <-release; panic("boom") }
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		Derived(p, key, boom)
	}()
	<-started
	// A second caller races the failing build: it either waits on it and
	// sees it fail, or arrives after the entry was dropped. Both must build.
	waiter := make(chan *int)
	go func() { waiter <- Derived(p, key, func(*Program) *int { v := 10; return &v }) }()
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the failed build's caller recovered %v, want the build's panic", r)
	}
	if v := <-waiter; v == nil || *v != 10 {
		t.Fatalf("a caller waiting on the failed build got %v, want a fresh build's 10", v)
	}
	if v := Derived(p, key, func(*Program) *int { t.Fatal("a successful rebuild must be cached"); return nil }); *v != 10 {
		t.Fatalf("cached rebuild = %d, want 10", *v)
	}
}

// TestDerivedHitAllocFree: asking again for a built value allocates
// nothing, even under a key that is neither pointer-shaped nor empty and
// with a build closure that captures its caller's state.
func TestDerivedHitAllocFree(t *testing.T) {
	p := &Program{Name: "hit"}
	name := "hit"
	build := func(*Program) []byte { return []byte(name) }
	d := Derived(p, testKey{3, name}, build)
	if avg := testing.AllocsPerRun(100, func() {
		if &Derived(p, testKey{3, name}, func(*Program) []byte { return []byte(name) })[0] != &d[0] {
			t.Fatal("a hit returned a different value")
		}
	}); avg != 0 {
		t.Errorf("a hit allocates %.1f objects/run, want 0", avg)
	}
}
