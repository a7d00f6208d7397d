package core

import (
	"errors"
	"fmt"
	"math"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// StrategyConfig bundles the knobs of the reactive scaling strategy.
type StrategyConfig struct {
	Model      ModelOptions
	Bottleneck BottleneckPolicy
	Batching   qos.BatchingPolicy
}

// DefaultStrategyConfig returns the default strategy configuration. The
// paper fixes the queue-wait share of the latency budget at 20% "for
// simplicity"; on this substrate the calibrated per-item costs leave an
// irreducible queue-wait floor slightly above that share, which would
// park Rebalance in permanent infeasibility, so the default reserves
// 30%. BenchmarkAblationQueueWaitFraction sweeps the fraction, including
// the paper-literal 0.2.
func DefaultStrategyConfig() StrategyConfig {
	return StrategyConfig{
		Model:      DefaultModelOptions(),
		Bottleneck: DefaultBottleneckPolicy(),
		Batching:   qos.BatchingPolicy{QueueWaitFraction: 0.3},
	}
}

// ConstraintDecision records how ScaleReactively handled one constraint.
type ConstraintDecision struct {
	Constraint *model.Constraint
	// Bottleneck is true when the ResolveBottlenecks path was taken.
	Bottleneck bool
	// Infeasible is true when Rebalance found the queue-wait limit
	// unreachable even at maximum scale-out, or when bottlenecks could not
	// be resolved by scaling out.
	Infeasible bool
	// Unresolvable lists bottleneck vertices already at maximum
	// parallelism.
	Unresolvable []string
	// QueueWaitLimit is Ŵ_js (only set on the Rebalance path).
	QueueWaitLimit float64
	// Parallelism is the per-vertex choice made for this constraint.
	Parallelism map[string]int
	// Skipped is true when the summary did not cover the sequence yet.
	Skipped bool
	// TailHot lists vertices whose measured tail-quantile queue wait
	// exceeded the constraint bound, triggering bottleneck resolution
	// even though their utilization sat below ρ_max.
	TailHot []string
	// Coverage is the fraction of the sequence's task slots with fresh
	// QoS reports (set by ScalerConfig.Gate when MinCoverage is
	// enabled).
	Coverage float64
	// LowCoverage is true when Coverage fell below the scaler's
	// MinCoverage threshold, holding scale-downs for this sequence's
	// vertices.
	LowCoverage bool
	// Models holds the fitted per-vertex latency models the Rebalance
	// path worked from, in sequence order (nil on the bottleneck path and
	// for skipped constraints); the decision audit trail exports their
	// Kingman inputs.
	Models []*VertexModel
	// Steps records Rebalance's gradient-descent iterations (Rebalance
	// path only).
	Steps []RebalanceStep
}

// Decision is the aggregate outcome of one ScaleReactively invocation.
type Decision struct {
	// Desired is the merged per-vertex parallelism (maximum over all
	// constraints' choices).
	Desired map[string]int
	// Actions is the diff against the current parallelism, sorted by
	// vertex name.
	Actions []model.ScalingAction
	// PerConstraint holds one entry per input constraint, in input order.
	PerConstraint []ConstraintDecision
	// Holds lists the per-vertex gating interventions ScalerConfig.Gate
	// applied after ScaleReactively (dead band, scale-down clamp, low
	// coverage); nil when ScaleReactively is called directly.
	Holds []Hold
	// TailFit is the tail fitter's state after the control loop folded
	// the summary's queue-wait windows in; nil without percentile
	// constraints.
	TailFit []TailFitSnapshot
}

// Hold records one gating intervention: the optimizer proposed Proposed
// for Vertex, the named gate kept Kept instead.
type Hold struct {
	Vertex string
	// Reason is "dead-band", "scale-down-clamp" or "low-coverage".
	Reason   string
	Proposed int
	Kept     int
}

// HasScaleUp reports whether any action increases parallelism.
func (d *Decision) HasScaleUp() bool {
	for _, a := range d.Actions {
		if a.IsScaleUp() {
			return true
		}
	}
	return false
}

// ScaleReactively implements Algorithm 2: for every latency constraint it
// either resolves bottlenecks (last resort) or rebalances parallelism via
// the latency model, then merges the per-constraint choices with a
// per-vertex maximum so that overlapping constraints never undercut each
// other. current maps every elastically relevant vertex to its current
// parallelism.
func ScaleReactively(cfg StrategyConfig, g *model.JobGraph, constraints []*model.Constraint, s *qos.Summary, current map[string]int) (*Decision, error) {
	if len(constraints) == 0 {
		return nil, errors.New("core: no constraints given")
	}
	d := &Decision{Desired: make(map[string]int, len(current))}

	for _, c := range constraints {
		cd := ConstraintDecision{Constraint: c}
		if !s.Covers(c.Sequence) {
			cd.Skipped = true
			d.PerConstraint = append(d.PerConstraint, cd)
			continue
		}
		// Percentile constraints fit the models to the target quantile
		// (κ-inflated A) and extend the bottleneck trigger to tail-hot
		// vertices — tail violations the mean-driven ρ_max check never
		// sees.
		mo := cfg.Model
		var tailHot map[string]bool
		if c.IsPercentile() {
			mo.TailQuantile = c.Quantile
			for _, name := range c.Sequence.Vertices() {
				if mo.Tail.TailHot(name, c.Quantile, c.Bound.Seconds()) {
					if tailHot == nil {
						tailHot = make(map[string]bool)
					}
					tailHot[name] = true
					cd.TailHot = append(cd.TailHot, name)
				}
			}
		}
		if cfg.Bottleneck.HasBottleneck(g, c.Sequence, s) || len(tailHot) > 0 {
			p, unresolvable := cfg.Bottleneck.ResolveBottlenecks(g, c.Sequence, s, tailHot)
			cd.Bottleneck = true
			cd.Parallelism = p
			cd.Unresolvable = unresolvable
			cd.Infeasible = len(unresolvable) > 0
		} else {
			sm, err := BuildSequenceModel(g, c.Sequence, s, mo)
			if err != nil {
				return nil, fmt.Errorf("core: constraint %q: %w", c.Name, err)
			}
			// P_min guarantees this invocation cannot undercut choices
			// made for earlier constraints (Algorithm 2, line 6).
			pMin := make(map[string]int)
			for _, name := range c.Sequence.Vertices() {
				pMin[name] = g.Vertex(name).MinParallelism
				if prev, ok := d.Desired[name]; ok && prev > pMin[name] {
					pMin[name] = prev
				}
			}
			cd.QueueWaitLimit = cfg.Batching.QueueWaitLimit(s, c)
			cd.Models = sm.Vertices
			p, err := RebalanceTraced(sm, cd.QueueWaitLimit, pMin, &cd.Steps)
			if err != nil {
				if !errors.Is(err, ErrInfeasible) {
					return nil, fmt.Errorf("core: constraint %q: %w", c.Name, err)
				}
				cd.Infeasible = true
				// Algorithm 1 returns maximum scale-out here. Infeasibility
				// is usually transient, though: a burst inflates the
				// measured waits and thereby the fitted model (the same
				// measurement distortion Section IV-E describes for
				// bottlenecks), so jumping straight to p_max overspends
				// dramatically. Mirror ResolveBottlenecks instead: double
				// the current parallelism per adjustment round until the
				// model becomes feasible again (or p_max is reached).
				for _, name := range c.Sequence.Vertices() {
					jv := g.Vertex(name)
					cur, ok := current[name]
					if !ok || cur <= 0 {
						cur = jv.Parallelism
					}
					target := jv.ClampParallelism(2 * cur)
					if target < pMin[name] {
						target = pMin[name]
					}
					p[name] = target
				}
			}
			cd.Parallelism = p
		}
		for name, p := range cd.Parallelism {
			if p > d.Desired[name] {
				d.Desired[name] = p
			}
		}
		d.PerConstraint = append(d.PerConstraint, cd)
	}

	d.Actions = model.DiffParallelism(current, d.Desired)
	return d, nil
}

// ScalerConfig configures the elastic scaler: the reactive strategy and
// the gates the control loop applies to each of its decisions.
type ScalerConfig struct {
	Strategy StrategyConfig
	// InactivityIntervals is the number of adjustment intervals the scaler
	// stays inactive after a scale-up, so that new TCP connections and
	// measurements settle (Section V uses 2). Scale-downs do not trigger
	// an inactivity phase.
	InactivityIntervals int
	// DeadBandFraction suppresses scaling actions whose relative change
	// is below this fraction of the current parallelism (0 disables).
	// The paper names reducing the number of scaling actions as future
	// work; a dead band is the simplest such mechanism — small
	// oscillations of the optimizer's choice stop translating into task
	// churn. Scale-ups that resolve bottlenecks are never suppressed.
	DeadBandFraction float64
	// MaxScaleDownFraction bounds how much of a vertex's parallelism a
	// single decision may remove (0 < f ≤ 1; default 0.5). Large
	// instantaneous scale-downs re-concentrate per-task load and arrival
	// burstiness so abruptly that the fitted model (which assumes c_A is
	// unaffected by parallelism — a limitation the paper explicitly
	// defers) can flip straight back to maximum scale-out; incremental
	// scale-downs keep the measurement loop stable. Set to 1 for the
	// paper-literal behavior.
	MaxScaleDownFraction float64
	// MinCoverage is the minimum fraction of a constrained sequence's
	// task slots that must have fresh QoS reports for the scaler to act
	// on scale-downs for that sequence's vertices (0 disables). Stale
	// summaries under-report load — dead reporters keep contributing old
	// averages while their actual share of the traffic is redistributed —
	// so acting on them would remove capacity exactly when tasks just
	// crashed. Scale-ups (including bottleneck resolution) are never
	// held: adding capacity under uncertainty is safe, removing it is
	// not.
	MinCoverage float64
}

// DefaultScalerConfig returns the paper's evaluation configuration with
// incremental scale-downs. Both runtimes' control loops use it for a zero
// ScalerConfig.
func DefaultScalerConfig() ScalerConfig {
	return ScalerConfig{
		Strategy:             DefaultStrategyConfig(),
		InactivityIntervals:  2,
		MaxScaleDownFraction: 0.5,
		MinCoverage:          0.5,
	}
}

// Gate applies the configured holds to a fresh ScaleReactively decision
// in a fixed order — dead band, scale-down clamp, low-coverage hold —
// recording each intervention in d.Holds and rebuilding d.Actions after
// every gate that changed d.Desired. current is the parallelism d was
// diffed against.
func (c ScalerConfig) Gate(d *Decision, s *qos.Summary, current map[string]int) {
	held := len(d.Holds)
	rediff := func() {
		if len(d.Holds) > held {
			d.Actions = model.DiffParallelism(current, d.Desired)
			held = len(d.Holds)
		}
	}
	if c.DeadBandFraction > 0 {
		d.applyDeadBand(c.DeadBandFraction)
		rediff()
	}
	if c.MaxScaleDownFraction > 0 && c.MaxScaleDownFraction < 1 {
		d.clampScaleDowns(c.MaxScaleDownFraction)
		rediff()
	}
	if c.MinCoverage > 0 {
		d.holdLowCoverageScaleDowns(c.MinCoverage, s, current)
		rediff()
	}
}

// hold keeps vertex at kept instead of the proposed parallelism.
func (d *Decision) hold(vertex, reason string, proposed, kept int) {
	d.Desired[vertex] = kept
	d.Holds = append(d.Holds, Hold{Vertex: vertex, Reason: reason, Proposed: proposed, Kept: kept})
}

// applyDeadBand drops desired changes smaller than fraction f of the
// current parallelism, except bottleneck-driven scale-ups.
func (d *Decision) applyDeadBand(f float64) {
	bottleneck := make(map[string]bool)
	for _, cd := range d.PerConstraint {
		if !cd.Bottleneck {
			continue
		}
		for name := range cd.Parallelism {
			bottleneck[name] = true
		}
	}
	// d.Actions is the diff of current against d.Desired sorted by vertex:
	// walking it instead of the map keeps the order of Holds, and so the
	// audit trail, independent of map iteration.
	for _, a := range d.Actions {
		name, from, to := a.Vertex, a.From, a.To
		if to > from && bottleneck[name] {
			continue // never delay bottleneck resolution
		}
		delta := to - from
		if delta < 0 {
			delta = -delta
		}
		if float64(delta) < f*float64(from) {
			d.hold(name, "dead-band", to, from)
		}
	}
}

// clampScaleDowns limits per-decision parallelism reductions to fraction
// f of the current parallelism.
func (d *Decision) clampScaleDowns(f float64) {
	for _, a := range d.Actions { // sorted by vertex, see applyDeadBand
		name, from, to := a.Vertex, a.From, a.To
		if to >= from {
			continue
		}
		maxDown := int(math.Ceil(f * float64(from)))
		if maxDown < 1 {
			maxDown = 1
		}
		if from-to > maxDown {
			d.hold(name, "scale-down-clamp", to, from-maxDown)
		}
	}
}

// holdLowCoverageScaleDowns records every constraint's QoS coverage and
// reverts parallelism reductions for vertices of sequences whose
// coverage is below min. Scale-ups pass through untouched so
// ResolveBottlenecks still works off whatever measurements remain.
func (d *Decision) holdLowCoverageScaleDowns(min float64, s *qos.Summary, current map[string]int) {
	for i := range d.PerConstraint {
		cd := &d.PerConstraint[i]
		cd.Coverage = s.SequenceCoverage(cd.Constraint.Sequence)
		if cd.Coverage >= min {
			continue
		}
		cd.LowCoverage = true
		for _, name := range cd.Constraint.Sequence.Vertices() {
			to, ok := d.Desired[name]
			from, cur := current[name]
			if ok && cur && to < from {
				d.hold(name, "low-coverage", to, from)
			}
		}
	}
}
