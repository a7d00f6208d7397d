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
	// Quantile is the constraint's target quantile (0 for mean
	// constraints); the fitted models' waits then predict that quantile.
	Quantile float64
	// TailHot lists vertices whose measured tail-quantile queue wait
	// exceeded the constraint bound, triggering bottleneck resolution
	// even though their utilization sat below ρ_max.
	TailHot []string
	// Coverage is the fraction of the sequence's task slots with fresh
	// QoS reports (set by ElasticScaler.Decide when MinCoverage is
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
	// Holds lists the per-vertex gating interventions ElasticScaler.Decide
	// applied after ScaleReactively (dead band, scale-down clamp, low
	// coverage); nil when ScaleReactively is called directly.
	Holds []Hold
	// TailFit is the tail fitter's state after ElasticScaler.Decide folded
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
		cd := ConstraintDecision{Constraint: c, Quantile: c.Quantile}
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
			p, unresolvable := cfg.Bottleneck.ResolveBottlenecksTail(g, c.Sequence, s, tailHot)
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

// ScalerConfig configures the ElasticScaler driver.
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
	// single decision may remove (0 < f ≤ 1; default 0.3). Large
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
// incremental scale-downs.
func DefaultScalerConfig() ScalerConfig {
	return ScalerConfig{
		Strategy:             DefaultStrategyConfig(),
		InactivityIntervals:  2,
		MaxScaleDownFraction: 0.5,
		MinCoverage:          0.5,
	}
}

// ElasticScaler is the master-node driver: once per adjustment interval it
// receives the fresh global summary and decides scaling actions, honoring
// the post-scale-up inactivity phase. It is not safe for concurrent use.
type ElasticScaler struct {
	cfg         ScalerConfig
	graph       *model.JobGraph
	constraints []*model.Constraint
	cooldown    int
	// counters for reports
	decisions      int
	scaleUps       int
	scaleDowns     int
	heldScaleDowns int
}

// NewElasticScaler creates a scaler for the given job and constraints.
func NewElasticScaler(cfg ScalerConfig, g *model.JobGraph, constraints []*model.Constraint) (*ElasticScaler, error) {
	if len(constraints) == 0 {
		return nil, errors.New("core: elastic scaler needs at least one constraint")
	}
	for _, c := range constraints {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.InactivityIntervals < 0 {
		cfg.InactivityIntervals = 0
	}
	// Percentile constraints need a tail fitter; create one unless the
	// caller supplied its own. Decide feeds it the summary's queue-wait
	// windows each adjustment interval.
	for _, c := range constraints {
		if c.IsPercentile() && cfg.Strategy.Model.Tail == nil {
			cfg.Strategy.Model.Tail = NewTailFitter(DefaultTailFitterConfig())
		}
	}
	return &ElasticScaler{cfg: cfg, graph: g, constraints: constraints}, nil
}

// TailFitter returns the scaler's tail-coefficient fitter, or nil when
// no percentile constraint needs one.
func (e *ElasticScaler) TailFitter() *TailFitter { return e.cfg.Strategy.Model.Tail }

// Decide consumes one fresh global summary and returns the scaling actions
// to apply, or nil during an inactivity phase (or when nothing changes).
// current maps vertices to their present parallelism. The summary's
// queue-wait windows are folded into the tail fit after the decision (and
// during an inactivity phase too), so interval n is planned with the κ of
// the windows up to n−1: its own window is what the plan is scored on.
func (e *ElasticScaler) Decide(s *qos.Summary, current map[string]int) (*Decision, error) {
	if e.cooldown > 0 {
		e.cooldown--
		e.fitTail(s)
		return nil, nil
	}
	d, err := ScaleReactively(e.cfg.Strategy, e.graph, e.constraints, s, current)
	e.fitTail(s)
	if err != nil {
		return nil, err
	}
	d.TailFit = e.TailFitter().Snapshot()
	e.applyDeadBand(d, current)
	e.clampScaleDowns(d, current)
	e.holdLowCoverageScaleDowns(d, s, current)
	e.decisions++
	for _, a := range d.Actions {
		if a.IsScaleUp() {
			e.scaleUps++
		} else {
			e.scaleDowns++
		}
	}
	if d.HasScaleUp() {
		e.cooldown = e.cfg.InactivityIntervals
	}
	return d, nil
}

// fitTail closes one fit window: for every vertex of a percentile
// constraint it hands the fitter the q-quantile of the vertex's queue-wait
// window over the mean queue wait of the constraint's ingoing edge — the
// mean BuildVertexModel fits e on, so κ·e·W^K reproduces the measured
// quantile at the current parallelism.
func (e *ElasticScaler) fitTail(s *qos.Summary) {
	f := e.TailFitter()
	for _, c := range e.constraints {
		if !c.IsPercentile() {
			continue
		}
		for _, name := range c.Sequence.Vertices() {
			win := s.Vertices[name].WaitWindow
			mean := win.Mean()
			if key, ok := c.Sequence.IngoingEdge(name); ok {
				if es, ok := s.Edge(key); ok {
					mean = es.QueueWait()
				}
			}
			f.Observe(name, c.Quantile, TailWindow{
				Count:    win.Count(),
				MeanWait: mean,
				TailWait: win.Quantile(c.Quantile),
			})
		}
	}
}

// applyDeadBand drops desired changes smaller than the configured
// fraction of the current parallelism, except bottleneck-driven
// scale-ups.
func (e *ElasticScaler) applyDeadBand(d *Decision, current map[string]int) {
	f := e.cfg.DeadBandFraction
	if f <= 0 {
		return
	}
	bottleneck := make(map[string]bool)
	for _, cd := range d.PerConstraint {
		if !cd.Bottleneck {
			continue
		}
		for name := range cd.Parallelism {
			bottleneck[name] = true
		}
	}
	changed := false
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
			d.Desired[name] = from
			d.Holds = append(d.Holds, Hold{Vertex: name, Reason: "dead-band", Proposed: to, Kept: from})
			changed = true
		}
	}
	if changed {
		d.Actions = model.DiffParallelism(current, d.Desired)
	}
}

// clampScaleDowns limits per-decision parallelism reductions to the
// configured fraction and rebuilds the action diff.
func (e *ElasticScaler) clampScaleDowns(d *Decision, current map[string]int) {
	f := e.cfg.MaxScaleDownFraction
	if f <= 0 || f >= 1 {
		return
	}
	changed := false
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
			d.Desired[name] = from - maxDown
			d.Holds = append(d.Holds, Hold{Vertex: name, Reason: "scale-down-clamp", Proposed: to, Kept: from - maxDown})
			changed = true
		}
	}
	if changed {
		d.Actions = model.DiffParallelism(current, d.Desired)
	}
}

// holdLowCoverageScaleDowns reverts parallelism reductions for vertices
// of sequences whose QoS coverage is below MinCoverage. Scale-ups pass
// through untouched so ResolveBottlenecks still works off whatever
// measurements remain.
func (e *ElasticScaler) holdLowCoverageScaleDowns(d *Decision, s *qos.Summary, current map[string]int) {
	min := e.cfg.MinCoverage
	if min <= 0 {
		return
	}
	changed := false
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
				d.Desired[name] = from
				d.Holds = append(d.Holds, Hold{Vertex: name, Reason: "low-coverage", Proposed: to, Kept: from})
				e.heldScaleDowns++
				changed = true
			}
		}
	}
	if changed {
		d.Actions = model.DiffParallelism(current, d.Desired)
	}
}

// Stats returns (decisions, scale-ups, scale-downs) counters for
// reporting.
func (e *ElasticScaler) Stats() (decisions, ups, downs int) {
	return e.decisions, e.scaleUps, e.scaleDowns
}

// HeldScaleDowns returns how many per-vertex scale-downs were held back
// because the constraint's sequence coverage was below MinCoverage.
func (e *ElasticScaler) HeldScaleDowns() int { return e.heldScaleDowns }
