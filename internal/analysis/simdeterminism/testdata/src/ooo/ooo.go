// Package ooo stands in for a simulation package (its path segment puts it
// in simdeterminism's scope).
package ooo

import (
	"math/rand"
	"time"
)

func schedule(ready map[int]bool) int {
	best := -1
	for tag := range ready { // want `range over map: iteration order is nondeterministic`
		if tag > best {
			best = tag
		}
	}
	best += rand.Int() // want `rand\.Int uses math/rand's shared global source`
	_ = time.Now()     // want `time\.Now in a simulation package`
	go func() {}()     // want `goroutine spawned in a simulation package`
	ch1, ch2 := make(chan int), make(chan int)
	select { // want `multi-case select`
	case <-ch1:
	case <-ch2:
	}
	return best
}

func merge(dst, src map[int]uint64) {
	//lint:allow simdeterminism order-independent sum into a map
	for k, v := range src {
		dst[k] += v
	}
}

func drain(ch chan int) int {
	// A single-case select is deterministic; only multi-way choice is
	// randomized by the runtime.
	select {
	case v := <-ch:
		return v
	}
}

func overSlice(xs []int) int {
	n := 0
	for _, x := range xs { // slices iterate in order: fine
		n += x
	}
	return n
}

// seededDraws owns an explicitly seeded generator — the sanctioned way for a
// simulation component (e.g. the fault injector) to get reproducible
// variation. Neither the constructors nor the instance methods are flagged.
func seededDraws(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(10)
	if rng.Float64() < 0.5 {
		n++
	}
	return n
}

func globalDraw() float64 {
	return rand.Float64() // want `rand\.Float64 uses math/rand's shared global source`
}
