package oooref

import "redsoc/internal/obs"

// SetObserver attaches a structured pipeline-event sink (nil detaches). The
// simulator emits obs events at sub-cycle resolution: dispatch/bucket
// assignment, wakeup, select grant/deny, issue, transparent recycling,
// violations and replays, redirects and commits.
// Observation never changes simulation outcomes; with a nil sink the hooks
// compile to one predictable branch each.
func (s *Simulator) SetObserver(sink obs.Sink) { s.obs = sink }

// String names the FU pool, matching the obs layer's taxonomy.
func (k fuKind) String() string { return obs.FUName(uint8(k)) }
