// Package probe provides end-to-end latency probes shared by the
// simulator and the live engine: applications record ground-truth
// sequence latencies at sequence ends; the runtime snapshots them per
// adjustment interval (constraint-fulfillment accounting) and per record
// interval (time series).
package probe

import (
	"hash/fnv"
	"sort"
	"sync"

	"nephelix/internal/metrics"
	"nephelix/internal/metrics/sketch"
)

// Probe collects ground-truth end-to-end latencies for one constrained
// sequence. Application behaviors call Record at the sequence end; the
// simulator snapshots the probe per adjustment interval (constraint
// fulfillment accounting, paper's "% of adjustment intervals") and per
// record interval (time-series rows).
type Probe struct {
	// BoundSeconds is the constraint bound ℓ used for fulfillment
	// accounting; 0 disables it.
	BoundSeconds float64
	// Quantile, when in (0,1), additionally accounts percentile
	// fulfillment: an adjustment interval counts as tail-fulfilled when
	// the interval's q-th quantile latency meets the bound. 0 tracks the
	// DefaultSLOQuantile-style p99 only through the run-wide sketch.
	Quantile float64
	// Tap, when set before the run starts, receives every recorded
	// latency under the probe lock — experiments use it to capture the
	// exact stream the sketches summarize.
	Tap func(latency float64)

	mu sync.Mutex

	adj   metrics.Mean   // per adjustment interval
	adjSk *sketch.Sketch // per adjustment interval (tail fulfillment)

	rec   metrics.Mean   // per record interval
	recSk *sketch.Sketch // per record interval (p95)

	// fulfillment counters over adjustment intervals with data.
	intervals     int
	fulfilled     int
	tailFulfilled int // intervals whose q-quantile met the bound

	total metrics.Mean
	all   *metrics.Reservoir // run-wide raw samples
	allSk *sketch.Sketch     // run-wide quantiles + SLO accounting
}

// Record adds one end-to-end latency observation (seconds).
func (p *Probe) Record(latency float64) {
	if latency < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.adj.Add(latency)
	p.rec.Add(latency)
	p.total.Add(latency)
	p.all.Add(latency)
	sketch.AddAll(latency, p.adjSk, p.recSk, p.allSk) // equal α: one bucket lookup
	if p.Tap != nil {
		p.Tap(latency)
	}
}

// AdjSnapshot closes one adjustment interval: it updates the mean and
// tail fulfillment counters and resets the adjustment accumulators.
func (p *Probe) AdjSnapshot() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.adj.Count() == 0 {
		return // no data items this interval; not counted
	}
	p.intervals++
	if p.BoundSeconds <= 0 || p.adj.Mean() <= p.BoundSeconds {
		p.fulfilled++
	}
	if p.Quantile > 0 && p.Quantile < 1 {
		if p.BoundSeconds <= 0 || p.adjSk.Quantile(p.Quantile) <= p.BoundSeconds {
			p.tailFulfilled++
		}
	}
	p.adj = metrics.Mean{}
	p.adjSk.Reset()
}

// RecSnapshot closes one record interval and returns (count, mean, p95).
// The p95 comes from the interval's quantile sketch (deterministic,
// ≤1% relative error).
func (p *Probe) RecSnapshot() (count int64, mean, p95 float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	count, mean = p.rec.Take()
	p95 = p.recSk.Quantile(0.95)
	p.recSk.Reset()
	return count, mean, p95
}

// Fulfillment returns the fraction of adjustment intervals whose mean
// latency met the bound, and the number of counted intervals.
func (p *Probe) Fulfillment() (fraction float64, intervals int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.intervals == 0 {
		return 0, 0
	}
	return float64(p.fulfilled) / float64(p.intervals), p.intervals
}

// TailFulfillment returns the fraction of adjustment intervals whose
// q-quantile latency met the bound (0 when the probe has no quantile or
// no counted intervals), plus the counted intervals.
func (p *Probe) TailFulfillment() (fraction float64, intervals int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.intervals == 0 || !(p.Quantile > 0 && p.Quantile < 1) {
		return 0, p.intervals
	}
	return float64(p.tailFulfilled) / float64(p.intervals), p.intervals
}

// TotalMean returns the run-wide mean latency.
func (p *Probe) TotalMean() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total.Mean()
}

// TotalP95 returns the run-wide 95th percentile latency from the
// quantile sketch: deterministic (independent of sampling seeds) and
// within 1% relative error of the exact value.
func (p *Probe) TotalP95() float64 {
	return p.TotalQuantile(0.95)
}

// TotalQuantile returns the run-wide q-th quantile latency from the
// quantile sketch.
func (p *Probe) TotalQuantile(q float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allSk.Quantile(q)
}

// TailState reports the run-wide SLO accounting inputs for the probe's
// bound: total observations, observations over the bound (within the
// sketch's relative accuracy), and the current q-th quantile estimate.
func (p *Probe) TailState(q float64) (count, bad uint64, estimate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	count = p.allSk.Count()
	if p.BoundSeconds > 0 {
		bad = p.allSk.CountAbove(p.BoundSeconds)
	}
	return count, bad, p.allSk.Quantile(q)
}

// TotalSketch returns an independent copy of the run-wide quantile
// sketch, e.g. for cross-run pooling via sketch.Merge.
func (p *Probe) TotalSketch() *sketch.Sketch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allSk.Clone()
}

// TotalSamples returns a copy of the run-wide reservoir's raw samples —
// the sampling-based API for callers that need actual observations
// (seed-sensitive, unlike the deterministic sketch quantiles).
func (p *Probe) TotalSamples() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.all.Samples()
}

// ReservoirQuantile estimates the run-wide q-th quantile from the
// raw-sample reservoir (nearest-rank over the held samples). Unlike
// TotalQuantile it depends on the reservoir's sampling seed.
func (p *Probe) ReservoirQuantile(q float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.all.Percentile(q)
}

// TotalCount returns the number of recorded observations.
func (p *Probe) TotalCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total.Count()
}

// ProbeSet is a named collection of probes created by the application
// before the simulation starts, so behaviors can close over them.
type ProbeSet struct {
	mu     sync.Mutex
	seed   int64
	probes map[string]*Probe
}

// NewProbeSet returns an empty probe set with the default seed.
func NewProbeSet() *ProbeSet { return NewProbeSetSeeded(1) }

// NewProbeSetSeeded returns an empty probe set whose reservoir sampling
// is derived from seed. Each probe's run-wide reservoir is seeded from
// the set seed mixed with a hash of the probe name, so sampling is a pure
// function of (seed, name) — independent of the order in which probes
// are first requested.
func NewProbeSetSeeded(seed int64) *ProbeSet {
	return &ProbeSet{seed: seed, probes: make(map[string]*Probe)}
}

// probeSeed derives the named probe's reservoir seed, which the
// reservoir hands to rand.NewSource at its first replacement draw. The
// constant is what the run-wide reservoir has always mixed in: changing
// it reshuffles TotalSamples and with it every committed bench
// fingerprint and both sim workloads' latency rows.
func (ps *ProbeSet) probeSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return ps.seed ^ int64(h.Sum64()^0x3c6ef372fe94f82a)
}

// Probe returns (creating on first use) the named probe.
func (ps *ProbeSet) Probe(name string) *Probe {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.probes[name]
	if !ok {
		p = &Probe{
			adjSk: sketch.NewDefault(),
			recSk: sketch.NewDefault(),
			all:   metrics.NewReservoir(16384, ps.probeSeed(name)),
			allSk: sketch.NewDefault(),
		}
		ps.probes[name] = p
	}
	return p
}

// SetBound attaches a constraint bound to the named probe.
func (ps *ProbeSet) SetBound(name string, boundSeconds float64) {
	ps.Probe(name).BoundSeconds = boundSeconds
}

// SetQuantile attaches a percentile-constraint quantile to the named
// probe, enabling per-interval tail-fulfillment accounting.
func (ps *ProbeSet) SetQuantile(name string, q float64) {
	ps.Probe(name).Quantile = q
}

// Len returns the number of probes in the set.
func (ps *ProbeSet) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.probes)
}

// Names returns the probe names in sorted order.
func (ps *ProbeSet) Names() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	names := make([]string, 0, len(ps.probes))
	for n := range ps.probes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
