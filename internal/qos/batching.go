package qos

import (
	"math"

	"nephelix/internal/model"
)

// BatchingController is the stateful adaptive-output-batching controller
// run by the QoS plane once per adjustment interval (the substrate from
// the authors' prior work that this paper builds on). It assigns each
// constrained edge a flush deadline and adjusts the deadlines greedily
// from measurements:
//
//   - Batching is the cheapest latency spend for throughput, but larger
//     batches make consumer arrivals bursty, which grows the measured
//     queue waiting time W_e = l_e − obl_e. The wait cost per deadline
//     millisecond differs per edge (it scales with the consumer's service
//     time), so a uniform budget split wastes the constraint's budget.
//   - When the sequence's total queue wait exceeds the scaler's allowance
//     Ŵ_js = f·(ℓ − Σ l_jv), or the estimated sequence latency exceeds
//     the safety-margined bound, the edge with the largest measured wait
//     shrinks multiplicatively.
//   - Otherwise the edge with the smallest measured wait grows into the
//     remaining slack, so throughput-relevant edges earn large batches
//     while wait-sensitive edges stay near instant flushing.
//
// Keeping W_js ≤ Ŵ_js also keeps the Rebalance optimization feasible:
// scaling out cannot reduce batch-induced waiting, only deadlines can.
type BatchingController struct {
	policy BatchingPolicy
	// elastic reports whether a scaler is active: near saturation an
	// elastic job holds its deadlines and lets scaling resolve the
	// overload, while a statically provisioned job grows them — batching
	// is then the only throughput lever (Section III-C).
	elastic bool
	// deadlines holds the current per-constraint, per-edge deadlines.
	deadlines map[string]map[model.EdgeKey]float64
}

// Controller tuning constants.
const (
	// batchShrinkFactor is the multiplicative decrease applied to the
	// worst edge when waits exceed the allowance (mild, to limit
	// oscillation against the 5 s measurement delay).
	batchShrinkFactor = 0.7
	// batchGrowFloor is the minimal additive growth step in seconds, so
	// deadlines can leave zero.
	batchGrowFloor = 200e-6
	// batchSafety is the fraction of ℓ kept as safety margin when growing.
	batchSafety = 0.1
	// batchDeadlineAbsCap is the absolute deadline ceiling in seconds.
	// With the calibrated ~1 ms per-flush cost, batches beyond ~8 items
	// already amortize over 90% of the shipping overhead; longer
	// deadlines only add latency and arrival burstiness, so generous
	// constraints must not inflate them.
	batchDeadlineAbsCap = 10e-3
	// batchWaitTargetFraction is the share of the scaler's queue-wait
	// allowance Ŵ the controller lets batching-induced waits consume.
	// Batch serialization wait does not shrink with parallelism, so it
	// must stay well below Ŵ or the fitted model sees an irreducible
	// wait, overestimates its error coefficient and over-provisions. The
	// batch-induced share of an edge's wait is estimated as the residue
	// of the measured wait over the Kingman utilization-wait prediction.
	batchWaitTargetFraction = 0.5
	// batchDeadlineCapFraction bounds any single edge's deadline relative
	// to its constraint's slack over the fixed task latencies.
	batchDeadlineCapFraction = 0.5
	// batchSaturationRho is the utilization at which waits are treated as
	// capacity-driven rather than batch-driven: above it, shrinking
	// batches can only lower throughput further (Section III-C's regime
	// where "adaptive batching cannot compensate" and the engine batches
	// as much as possible).
	batchSaturationRho = 0.8
	// batchProducerBusyRho protects an edge from deadline shrinking while
	// its producer is substantially busy: shrinking would raise the
	// producer's per-item flush cost and push it into saturation,
	// creating a shrink/saturate/grow limit cycle.
	batchProducerBusyRho = 0.6
)

// NewBatchingController creates a controller with the given policy.
func NewBatchingController(policy BatchingPolicy) *BatchingController {
	return &BatchingController{
		policy:    policy,
		deadlines: make(map[string]map[model.EdgeKey]float64),
	}
}

// SetElastic declares whether an elastic scaler is active.
func (c *BatchingController) SetElastic(elastic bool) { c.elastic = elastic }

// Update consumes a fresh global summary and returns the flush deadline
// per edge; when several constraints cover an edge the smallest deadline
// wins.
func (c *BatchingController) Update(s *Summary, constraints []*model.Constraint) map[model.EdgeKey]float64 {
	out := make(map[model.EdgeKey]float64)
	for _, con := range constraints {
		per := c.updateConstraint(s, con)
		for key, dl := range per {
			if cur, ok := out[key]; !ok || dl < cur {
				out[key] = dl
			}
		}
	}
	return out
}

// updateConstraint runs one controller step for a single constraint.
func (c *BatchingController) updateConstraint(s *Summary, con *model.Constraint) map[model.EdgeKey]float64 {
	edges := con.Sequence.Edges()
	if len(edges) == 0 {
		return nil
	}
	state := c.deadlines[con.Name]
	if state == nil {
		state = make(map[model.EdgeKey]float64, len(edges))
		c.deadlines[con.Name] = state
	}
	est, covered := EstimateSequenceLatency(s, con.Sequence)
	if !covered {
		// No measurements yet: stay at instant flushing.
		for _, key := range edges {
			if _, ok := state[key]; !ok {
				state[key] = 0
			}
		}
		return state
	}

	bound := secondsOf(con.Bound)
	wLimit := c.policy.QueueWaitLimit(s, con)
	slack := bound*(1-batchSafety) - est.Total()

	limit := (bound - est.TaskLatency) * batchDeadlineCapFraction
	if limit > batchDeadlineAbsCap {
		limit = batchDeadlineAbsCap
	}
	if limit < 0 {
		limit = 0
	}

	// Estimate each edge's batch-induced wait residue: measured wait
	// minus the Kingman prediction for the consuming vertex's current
	// utilization. Utilization-driven waiting is the scaler's job; only
	// the batch-induced share is the controller's to remove.
	residues := make(map[model.EdgeKey]float64, len(edges))
	totalResidue := 0.0
	for _, name := range con.Sequence.Vertices() {
		key, ok := con.Sequence.IngoingEdge(name)
		if !ok {
			continue
		}
		es, ok := s.Edges[key]
		if !ok {
			continue
		}
		res := es.QueueWait()
		if vs, ok := s.Vertices[name]; ok {
			wk := KingmanWait(vs.ArrivalRate(), vs.ServiceTimeMean,
				vs.InterarrivalCV*vs.InterarrivalCV, vs.ServiceTimeCV*vs.ServiceTimeCV)
			if !math.IsInf(wk, 1) {
				res -= wk
			}
		}
		if res < 0 {
			res = 0
		}
		residues[key] = res
		totalResidue += res
	}

	// Locate the edge with the largest batch residue (shrink candidate;
	// edges with substantially busy producers are protected — see
	// batchProducerBusyRho — unless every edge is protected) and whether
	// any edge still has room to grow (edges already at the cap cannot
	// absorb more budget).
	producerBusy := func(key model.EdgeKey) bool {
		ps, ok := s.Vertices[key.Source]
		return ok && ps.Utilization() >= batchProducerBusyRho
	}
	worst := edges[0]
	worstW := -1.0
	haveUnprotected := false
	canGrow := false
	for _, key := range edges {
		busy := producerBusy(key)
		r := residues[key]
		switch {
		case !busy && !haveUnprotected:
			// First unprotected edge always displaces protected picks.
			worst, worstW = key, r
			haveUnprotected = true
		case !busy && r > worstW:
			worst, worstW = key, r
		case busy && !haveUnprotected && r > worstW:
			worst, worstW = key, r
		}
		if state[key] < limit*(1-1e-9) {
			canGrow = true
		}
	}
	// A genuine bottleneck shows as near-saturated utilization somewhere
	// in the sequence; only then is a large wait evidence that batching
	// cannot hurt (without saturation, the wait is the batching's own
	// doing and must shrink instead).
	maxRho := 0.0
	for _, name := range con.Sequence.Vertices() {
		if vs, ok := s.Vertices[name]; ok {
			if rho := vs.Utilization(); rho > maxRho {
				maxRho = rho
			}
		}
	}

	// Producer-bound edges: when an edge's producing vertex runs at
	// saturation (its emission loop or upstream UDF cannot keep pace),
	// growing that edge's batching directly raises producer capacity —
	// per-flush overhead amortizes over more items — at modest latency
	// cost. Scaling consumers cannot fix a producer bottleneck.
	grewProducerBound := false
	for _, key := range edges {
		ps, ok := s.Vertices[key.Source]
		if !ok || ps.Utilization() < batchSaturationRho {
			continue
		}
		if state[key] >= limit*(1-1e-9) {
			continue
		}
		state[key] = state[key]*2 + batchGrowFloor
		if state[key] > limit {
			state[key] = limit
		}
		grewProducerBound = true
	}
	if grewProducerBound {
		return state
	}

	switch {
	case maxRho >= batchSaturationRho && c.elastic:
		// Saturation with an active scaler: hold the deadlines. Shrinking
		// would lower capacity while the overload lasts; growing would
		// add batch latency that the imminent scale-out makes
		// unnecessary.
	case est.QueueWait > bound && maxRho >= batchSaturationRho:
		// The queue waits alone exceed the whole bound at saturation: the
		// constraint is currently unattainable (bottleneck/backpressure)
		// and smaller batches would only lower capacity. Batch as much as
		// possible — larger batches amortize shipping overhead and raise
		// effective throughput, which is the fastest way out of the
		// backlog (Section III-C's "batching as much as possible").
		for _, key := range edges {
			dl := state[key]*2 + batchGrowFloor
			if dl > limit {
				dl = limit
			}
			state[key] = dl
		}
	case maxRho >= batchSaturationRho && slack < 0:
		// Near saturation the waits are utilization-driven; batching is
		// the throughput lever, so grow instead of shrink even while the
		// estimate violates the bound.
		for _, key := range edges {
			dl := state[key]*1.5 + batchGrowFloor
			if dl > limit {
				dl = limit
			}
			state[key] = dl
		}
	case totalResidue > wLimit*batchWaitTargetFraction || slack < 0:
		// Batch-induced waits (or total latency) too high but
		// recoverable: shrink the worst offender.
		state[worst] = state[worst] * batchShrinkFactor
		if state[worst] < batchGrowFloor/4 {
			state[worst] = 0
		}
	case slack > 0 && canGrow:
		// Room to batch more: grow every low-residue edge with room,
		// bounded by the shared slack and the per-edge cap. The cap
		// derives from the bound's slack over the fixed task latencies
		// (window-dominated sequences leave little room), so deadlines
		// never grow to magnitudes that alias with window periods.
		budget := 0.4 * slack
		for _, key := range edges {
			if state[key] >= limit*(1-1e-9) {
				continue
			}
			if residues[key] > wLimit*batchWaitTargetFraction/float64(len(edges)) {
				continue // this edge already costs its share of wait
			}
			grow := budget / float64(len(edges))
			if maxStep := 0.5*state[key] + batchGrowFloor; grow > maxStep {
				grow = maxStep
			}
			dl := state[key] + grow
			if dl > limit {
				dl = limit
			}
			state[key] = dl
		}
	}
	return state
}

// KingmanWait returns Kingman's GI/G/1 queue-wait approximation
// (Equation 3) for a task with per-task arrival rate lambda, mean service
// time s, and squared coefficients of variation ca2 and cs2. It returns
// +Inf when the utilization ρ = λ·S is at or above 1.
func KingmanWait(lambda, s, ca2, cs2 float64) float64 {
	rho := lambda * s
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho <= 0 || s <= 0 {
		return 0
	}
	// (ρ/μ)/(1−ρ) = ρ·S/(1−ρ).
	return (rho * s / (1 - rho)) * (ca2 + cs2) / 2
}
