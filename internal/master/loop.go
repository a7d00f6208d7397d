// Package master is the job master's adjustment interval (§IV, Alg. 2):
// merge the QoS summary, redistribute batching slack, run the elastic
// scaler, apply the actions. It exists once; the live engine and the
// simulator drive it through Runtime with wall and virtual time. It
// imports no observability: instruments attach as Observers, which see a
// fixed decision and cannot return anything into the loop.
package master

import (
	"errors"
	"fmt"
	"math"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
)

// Runtime is what one adjustment interval asks of the layer running the
// job.
type Runtime interface {
	// Now is seconds since the job started.
	Now() float64
	// Parallelism is the live (non-draining) task count per vertex.
	Parallelism() map[string]int
	// Partials is one partial summary per QoS manager.
	Partials() []*qos.PartialSummary
	// SetDeadlines publishes new flush deadlines to the adaptive gates.
	SetDeadlines(map[model.EdgeKey]float64)
	// Scale adds (delta > 0) or drains (delta < 0) tasks of a vertex.
	Scale(vertex string, delta int) error
}

// Interval is what one Step computed, handed to every Observer after the
// decision is fixed and before it is applied. Observers must not modify
// what it points to.
type Interval struct {
	// Round is the 1-based ordinal of the Step.
	Round int
	Now   float64
	// Summary is the interval's global QoS summary.
	Summary     *qos.Summary
	Parallelism map[string]int
	// Decision is nil without an elastic scaler, during its inactivity
	// phase, and when ScaleReactively failed.
	Decision *core.Decision
}

// Observer sees every interval, in registration order.
type Observer func(Interval)

// Loop is the control state that outlives an interval: the batching
// controller and, when elastic, the scaler's — the inactivity countdown
// after a scale-up and the tail fitter of percentile constraints. It is
// not safe for concurrent use: one goroutine (or event loop) calls Step.
type Loop struct {
	graph       *model.JobGraph
	constraints []*model.Constraint
	probes      *probe.ProbeSet
	batching    *qos.BatchingController
	scaler      core.ScalerConfig
	elastic     bool
	tail        *core.TailFitter // nil without percentile constraints
	cooldown    int
	observers   []Observer
	round       int
}

// New validates the job's constraints (an elastic loop needs at least
// one) and builds its loop. A zero scaler configuration means
// core.DefaultScalerConfig() — for the batching controller's queue-wait
// share too, so a job needs no scaler settings to run the paper's control
// plane. Nil observers are skipped, so a layer passes its optional hooks
// unconditionally.
func New(g *model.JobGraph, constraints []*model.Constraint, scaler core.ScalerConfig, elastic bool,
	probes *probe.ProbeSet, observers ...Observer) (*Loop, error) {
	for _, c := range constraints {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	if elastic && len(constraints) == 0 {
		return nil, errors.New("master: elastic scaler needs at least one constraint")
	}
	if scaler == (core.ScalerConfig{}) {
		scaler = core.DefaultScalerConfig()
	}
	l := &Loop{
		graph:       g,
		constraints: constraints,
		probes:      probes,
		batching:    qos.NewBatchingController(scaler.Strategy.Batching),
		scaler:      scaler,
		elastic:     elastic,
		observers:   make([]Observer, 0, len(observers)),
	}
	l.batching.SetElastic(elastic)
	for _, c := range constraints {
		if elastic && c.IsPercentile() && l.tail == nil {
			l.tail = core.NewTailFitter(core.DefaultTailFitterConfig())
		}
	}
	// The models are fitted with the loop's fitter, fed by decide.
	l.scaler.Strategy.Model.Tail = l.tail
	for _, o := range observers {
		if o != nil {
			l.observers = append(l.observers, o)
		}
	}
	return l, nil
}

// ManagerConfig is the QoS manager configuration both layers use: the
// summary averages over the measurement intervals of one adjustment
// interval.
func ManagerConfig(adjustment, measurement float64) qos.ManagerConfig {
	m := qos.DefaultManagerConfig()
	if adjustment > 0 && measurement > 0 {
		m.HistoryLength = int(math.Max(1, math.Round(adjustment/measurement)))
	}
	return m
}

// Step runs one adjustment interval against rt. A scaler error is
// returned after the observers ran (the interval's measurements are still
// worth recording) and nothing is scaled; what to do about it is the
// layer's policy.
func (l *Loop) Step(rt Runtime) error {
	for _, name := range l.probes.Names() {
		l.probes.Probe(name).AdjSnapshot()
	}
	par := rt.Parallelism()
	return l.step(rt, par, qos.MergePartials(par, rt.Partials()...))
}

// step is the interval from the merged summary on: a pure function of
// (loop state, summary, par) as far as rt's SetDeadlines and Scale calls
// go, which is what the replay tests drive.
func (l *Loop) step(rt Runtime, par map[string]int, summary *qos.Summary) error {
	if len(l.constraints) > 0 {
		rt.SetDeadlines(l.batching.Update(summary, l.constraints))
	}
	l.round++
	decision, err := l.decide(summary, par)
	iv := Interval{
		Round: l.round, Now: rt.Now(), Summary: summary,
		Parallelism: par, Decision: decision,
	}
	for _, o := range l.observers {
		o(iv)
	}
	if err != nil {
		return fmt.Errorf("scaler: %w", err)
	}
	if decision == nil {
		return nil
	}
	for _, a := range decision.Actions {
		if err := rt.Scale(a.Vertex, a.Delta()); err != nil {
			return fmt.Errorf("scaling %s: %w", a, err)
		}
	}
	return nil
}

// decide is the elastic scaler's interval: nil during the inactivity
// phase after a scale-up (and without a scaler), else ScaleReactively's
// decision after the configured gates. The summary's queue-wait windows
// are folded into the tail fit after planning, and during an inactivity
// phase too, so interval n is planned with the κ of the windows up to
// n−1: its own window is what the plan is scored on.
func (l *Loop) decide(s *qos.Summary, par map[string]int) (*core.Decision, error) {
	if !l.elastic {
		return nil, nil
	}
	if l.cooldown > 0 {
		l.cooldown--
		l.tail.ObserveSummary(l.constraints, s)
		return nil, nil
	}
	d, err := core.ScaleReactively(l.scaler.Strategy, l.graph, l.constraints, s, par)
	l.tail.ObserveSummary(l.constraints, s)
	if err != nil {
		return nil, err
	}
	d.TailFit = l.tail.Snapshot()
	l.scaler.Gate(d, s, par)
	if d.HasScaleUp() {
		l.cooldown = l.scaler.InactivityIntervals
	}
	return d, nil
}

// TailFitter is the scaler's tail-coefficient fitter, nil when the loop
// is not elastic or has no percentile constraint.
func (l *Loop) TailFitter() *core.TailFitter { return l.tail }
