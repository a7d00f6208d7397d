package core

import (
	"math"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// BottleneckPolicy configures bottleneck detection and resolution
// (Section IV-E).
type BottleneckPolicy struct {
	// RhoMax is the utilization threshold at or above which a vertex
	// counts as a bottleneck; "a value close to 1" per the paper.
	RhoMax float64
}

// DefaultBottleneckPolicy returns the default threshold ρ_max = 0.95.
func DefaultBottleneckPolicy() BottleneckPolicy {
	return BottleneckPolicy{RhoMax: 0.95}
}

func (p BottleneckPolicy) rhoMax() float64 {
	if p.RhoMax <= 0 || p.RhoMax > 1 {
		return 0.95
	}
	return p.RhoMax
}

// HasBottleneck reports whether any vertex of the sequence is measured at
// or above the utilization threshold.
func (p BottleneckPolicy) HasBottleneck(g *model.JobGraph, seq *model.Sequence, s *qos.Summary) bool {
	for _, name := range seq.Vertices() {
		vs, ok := s.Vertex(name)
		if !ok {
			continue
		}
		if vs.Utilization() >= p.rhoMax() {
			return true
		}
	}
	return false
}

// isHot reports whether a vertex triggers bottleneck resolution: either
// its measured utilization is at the threshold, or it is in the tailHot
// set (its measured tail-quantile queue wait exceeds the constraint
// bound even though the mean utilization looks fine).
func (p BottleneckPolicy) isHot(name string, vs qos.VertexStats, ok bool, tailHot map[string]bool) bool {
	if tailHot[name] {
		return true
	}
	return ok && vs.Utilization() >= p.rhoMax()
}

// ResolveBottlenecks implements Equation 10: every bottleneck vertex of
// the sequence gets the new parallelism
//
//	p* = min(p_max, max(2p, ⌈2 λ p S̄⌉)),
//
// i.e. at least a doubling, or twice the number of busy servers the
// measured load requires, whichever is larger. Non-bottleneck vertices
// keep their current parallelism. ResolveBottlenecks is a last resort:
// during backpressure the summary's rates are distorted, so Rebalance
// would behave erratically (Section IV-E).
//
// The returned map has an entry for every vertex of the sequence. The
// second return value lists vertices that are bottlenecked but already at
// maximum parallelism (or inelastic): per the paper the user must be
// informed, as scaling out cannot resolve them.
//
// tailHot (nil for mean constraints) adds vertices whose measured
// tail-quantile queue wait violates a percentile constraint bound even
// though their utilization sits below ρ_max. The mean-driven trigger never
// sees these — a vertex at ρ = 0.7 can hold a p99 wait far above the bound
// under bursty arrivals — so they get the same Equation 10 treatment as
// utilization bottlenecks.
func (p BottleneckPolicy) ResolveBottlenecks(g *model.JobGraph, seq *model.Sequence, s *qos.Summary, tailHot map[string]bool) (map[string]int, []string) {
	result := make(map[string]int)
	var unresolvable []string
	for _, name := range seq.Vertices() {
		jv := g.Vertex(name)
		if jv == nil {
			continue
		}
		vs, ok := s.Vertex(name)
		cur := jv.Parallelism
		if ok && vs.Parallelism > 0 {
			cur = vs.Parallelism
		}
		result[name] = cur
		if !p.isHot(name, vs, ok, tailHot) {
			continue
		}
		// Equation 10. λ·p·S̄ is the total busy-server demand of the
		// measured load; doubling it (and at least doubling p) gives the
		// headroom to drain the grown queues.
		demand := vs.ArrivalRate() * float64(cur) * vs.ServiceTimeMean
		target := int(math.Ceil(2 * demand))
		if 2*cur > target {
			target = 2 * cur
		}
		clamped := jv.ClampParallelism(target)
		result[name] = clamped
		if clamped <= cur {
			unresolvable = append(unresolvable, name)
			result[name] = cur
		}
	}
	return result, unresolvable
}
