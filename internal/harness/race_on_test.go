//go:build race

package harness

// raceEnabled reports whether the race detector is compiled in; allocation-
// counting tests skip under it (the detector's shadow allocations make
// testing.AllocsPerRun meaningless).
const raceEnabled = true
