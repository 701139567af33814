package ooo

import "redsoc/internal/timing"

// DelayHistogram counts a run's single-cycle ops by actual delay: bin d
// holds the ops that settled in d ps, for d in [0, timing.ClockPS]. Timing
// speculation picks its overclocked period from it (baseline.ChoosePeriod).
// Most of the 501 bins of a real run are empty, so the cell journal writes
// only the non-zero ones (see the payload layout in internal/harness).
type DelayHistogram [timing.ClockPS + 1]int64
