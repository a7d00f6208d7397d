package core

import (
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// scalerFixture builds src -> work -> sink with an elastic "work" vertex,
// the constraint over (src->work, work, work->sink) and a summary with the
// given per-task load.
type scalerFixture struct {
	g          *model.JobGraph
	constraint *model.Constraint
	summary    *qos.Summary
}

func newScalerFixture(t *testing.T, lambda, svc float64, p int, bound time.Duration) *scalerFixture {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 2},
		{Name: "work", Parallelism: p, MinParallelism: 1, MaxParallelism: 520},
		{Name: "sink", Parallelism: 2},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "work", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	c := &model.Constraint{Name: "c", Sequence: seq, Bound: bound, Window: 10 * time.Second}
	s := qos.NewSummary()
	s.Vertices["work"] = qos.VertexStats{
		TaskLatency:      svc,
		ServiceTimeMean:  svc,
		ServiceTimeCV:    0.5,
		InterarrivalMean: 1 / lambda,
		InterarrivalCV:   1.0,
		Parallelism:      p,
		FreshTasks:       p, // all reporters alive
	}
	s.Edges[model.EdgeKey{Source: "src", Target: "work"}] = qos.EdgeStats{ChannelLatency: 0.004, OutputBatchLatency: 0.002}
	s.Edges[model.EdgeKey{Source: "work", Target: "sink"}] = qos.EdgeStats{ChannelLatency: 0.001, OutputBatchLatency: 0.0005}
	return &scalerFixture{g: g, constraint: c, summary: s}
}

func TestHasBottleneck(t *testing.T) {
	f := newScalerFixture(t, 99, 0.01, 4, 20*time.Millisecond) // ρ = 0.99
	pol := DefaultBottleneckPolicy()
	if !pol.HasBottleneck(f.g, f.constraint.Sequence, f.summary) {
		t.Error("rho=0.99 not detected as bottleneck")
	}
	f2 := newScalerFixture(t, 50, 0.01, 4, 20*time.Millisecond) // ρ = 0.5
	if pol.HasBottleneck(f2.g, f2.constraint.Sequence, f2.summary) {
		t.Error("rho=0.5 flagged as bottleneck")
	}
}

func TestResolveBottlenecksDoubling(t *testing.T) {
	// ρ = 1.2 (measured during queue growth): demand = λ·p·S = 1.2·p.
	f := newScalerFixture(t, 120, 0.01, 10, 20*time.Millisecond)
	pol := DefaultBottleneckPolicy()
	p, unresolvable := pol.ResolveBottlenecks(f.g, f.constraint.Sequence, f.summary, nil)
	if len(unresolvable) != 0 {
		t.Errorf("unexpected unresolvable vertices: %v", unresolvable)
	}
	// max(2·10, ⌈2·1.2·10⌉) = max(20, 24) = 24.
	if p["work"] != 24 {
		t.Errorf("bottleneck scale-out: got %d, want 24", p["work"])
	}
	// The sequence (src->work, work, work->sink) contains only "work";
	// other vertices must not appear in the result.
	if _, ok := p["sink"]; ok {
		t.Errorf("sink is not a sequence vertex but got parallelism %d", p["sink"])
	}
}

func TestResolveBottlenecksAtMax(t *testing.T) {
	f := newScalerFixture(t, 120, 0.01, 10, 20*time.Millisecond)
	f.g.Vertex("work").MaxParallelism = 10 // already fully scaled out
	pol := DefaultBottleneckPolicy()
	p, unresolvable := pol.ResolveBottlenecks(f.g, f.constraint.Sequence, f.summary, nil)
	if len(unresolvable) != 1 || unresolvable[0] != "work" {
		t.Errorf("unresolvable: got %v, want [work]", unresolvable)
	}
	if p["work"] != 10 {
		t.Errorf("parallelism at max: got %d, want 10", p["work"])
	}
}

func TestScaleReactivelyRebalancePath(t *testing.T) {
	// Low load at high parallelism: the strategy must scale down.
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond) // ρ = 0.01
	d, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{f.constraint}, f.summary, map[string]int{"work": 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PerConstraint) != 1 || d.PerConstraint[0].Bottleneck {
		t.Fatalf("expected rebalance path: %+v", d.PerConstraint)
	}
	if d.Desired["work"] >= 64 {
		t.Errorf("under light load parallelism should shrink: got %d", d.Desired["work"])
	}
	if len(d.Actions) != 1 || d.Actions[0].IsScaleUp() {
		t.Errorf("expected one scale-down action, got %v", d.Actions)
	}
}

func TestScaleReactivelyBottleneckPath(t *testing.T) {
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // ρ = 1.5
	d, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{f.constraint}, f.summary, map[string]int{"work": 8})
	if err != nil {
		t.Fatal(err)
	}
	if !d.PerConstraint[0].Bottleneck {
		t.Fatal("bottleneck path not taken")
	}
	// max(16, ⌈2·1.5·8⌉=24) = 24.
	if d.Desired["work"] != 24 {
		t.Errorf("desired: got %d, want 24", d.Desired["work"])
	}
	if !d.HasScaleUp() {
		t.Error("bottleneck resolution must scale up")
	}
}

func TestScaleReactivelySkipsUncovered(t *testing.T) {
	f := newScalerFixture(t, 50, 0.01, 8, 20*time.Millisecond)
	empty := qos.NewSummary()
	d, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{f.constraint}, empty, map[string]int{"work": 8})
	if err != nil {
		t.Fatal(err)
	}
	if !d.PerConstraint[0].Skipped {
		t.Error("uncovered constraint must be skipped")
	}
	if len(d.Actions) != 0 {
		t.Errorf("no actions expected, got %v", d.Actions)
	}
}

func TestScaleReactivelyMergesOverlappingConstraints(t *testing.T) {
	// Two constraints over the same sequence, one much tighter. The
	// looser one is processed second and must not undercut the tighter
	// one's parallelism choice (P_min logic, Algorithm 2 line 6).
	f := newScalerFixture(t, 80, 0.008, 16, 0)
	tight := &model.Constraint{Name: "tight", Sequence: f.constraint.Sequence, Bound: 12 * time.Millisecond, Window: 10 * time.Second}
	loose := &model.Constraint{Name: "loose", Sequence: f.constraint.Sequence, Bound: 500 * time.Millisecond, Window: 10 * time.Second}

	dTight, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{tight}, f.summary, map[string]int{"work": 16})
	if err != nil {
		t.Fatal(err)
	}
	dBoth, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{tight, loose}, f.summary, map[string]int{"work": 16})
	if err != nil {
		t.Fatal(err)
	}
	if dBoth.Desired["work"] < dTight.Desired["work"] {
		t.Errorf("adding a looser constraint reduced parallelism: %d < %d",
			dBoth.Desired["work"], dTight.Desired["work"])
	}
	// Order independence: loose first must yield the same merged result.
	dRev, err := ScaleReactively(DefaultStrategyConfig(), f.g, []*model.Constraint{loose, tight}, f.summary, map[string]int{"work": 16})
	if err != nil {
		t.Fatal(err)
	}
	if dRev.Desired["work"] < dTight.Desired["work"] {
		t.Errorf("constraint order changed outcome: %d < %d", dRev.Desired["work"], dTight.Desired["work"])
	}
}

func TestScaleReactivelyNoConstraints(t *testing.T) {
	f := newScalerFixture(t, 50, 0.01, 8, 20*time.Millisecond)
	if _, err := ScaleReactively(DefaultStrategyConfig(), f.g, nil, f.summary, nil); err == nil {
		t.Error("no constraints must error")
	}
}
