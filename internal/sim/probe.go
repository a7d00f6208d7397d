package sim

import "nephelix/internal/probe"

// ProbeSet is internal/probe's probe set under the simulator's name:
// bench/sim.go names it.
type ProbeSet = probe.ProbeSet
