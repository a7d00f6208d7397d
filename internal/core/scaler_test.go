package core

import (
	"testing"
	"time"

	"nephelix/internal/metrics/sketch"
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
	p, unresolvable := pol.ResolveBottlenecks(f.g, f.constraint.Sequence, f.summary)
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
	p, unresolvable := pol.ResolveBottlenecks(f.g, f.constraint.Sequence, f.summary)
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

func TestElasticScalerInactivityWindow(t *testing.T) {
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // bottleneck → scale-up
	sc, err := NewElasticScaler(DefaultScalerConfig(), f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[string]int{"work": 8}
	d, err := sc.Decide(f.summary, cur)
	if err != nil || d == nil || !d.HasScaleUp() {
		t.Fatalf("first decision: d=%v err=%v", d, err)
	}
	// The next two adjustment intervals are the inactivity phase.
	for i := 0; i < 2; i++ {
		d, err = sc.Decide(f.summary, cur)
		if err != nil || d != nil {
			t.Fatalf("inactivity interval %d: d=%v err=%v", i, d, err)
		}
	}
	// Afterwards decisions resume.
	d, err = sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("post-inactivity decision: d=%v err=%v", d, err)
	}
	decisions, ups, _ := sc.Stats()
	if decisions != 2 || ups < 2 {
		t.Errorf("stats: decisions=%d ups=%d", decisions, ups)
	}
}

func TestElasticScalerNoCooldownAfterScaleDown(t *testing.T) {
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond) // light load → scale-down
	sc, err := NewElasticScaler(DefaultScalerConfig(), f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[string]int{"work": 64}
	d, err := sc.Decide(f.summary, cur)
	if err != nil || d == nil || d.HasScaleUp() {
		t.Fatalf("first decision: %+v err=%v", d, err)
	}
	// Scale-downs do not trigger the inactivity phase.
	d, err = sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("second decision suppressed after scale-down: d=%v err=%v", d, err)
	}
}

func TestNewElasticScalerValidation(t *testing.T) {
	f := newScalerFixture(t, 10, 0.001, 8, 20*time.Millisecond)
	if _, err := NewElasticScaler(DefaultScalerConfig(), f.g, nil); err == nil {
		t.Error("scaler without constraints must error")
	}
	bad := &model.Constraint{Name: "bad", Sequence: f.constraint.Sequence, Bound: -1, Window: time.Second}
	if _, err := NewElasticScaler(DefaultScalerConfig(), f.g, []*model.Constraint{bad}); err == nil {
		t.Error("invalid constraint must error")
	}
}

func TestElasticScalerScaleDownClamp(t *testing.T) {
	// Light load at p=64 wants a deep scale-down; the clamp limits each
	// decision to the configured fraction.
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	cfg := DefaultScalerConfig()
	cfg.MaxScaleDownFraction = 0.25
	sc, err := NewElasticScaler(cfg, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Decide(f.summary, map[string]int{"work": 64})
	if err != nil || d == nil {
		t.Fatalf("decide: %v", err)
	}
	if got := d.Desired["work"]; got < 48 {
		t.Errorf("scale-down clamp violated: 64 -> %d (max 25%% per round)", got)
	}
	if got := d.Desired["work"]; got >= 64 {
		t.Errorf("no scale-down happened: %d", got)
	}
}

func TestElasticScalerDeadBand(t *testing.T) {
	// Moderate load at p=16; the optimizer would nudge by a task or two.
	f := newScalerFixture(t, 40, 0.003, 16, 20*time.Millisecond)
	base := DefaultScalerConfig()
	base.MaxScaleDownFraction = 1 // isolate the dead band
	noBand, err := NewElasticScaler(base, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d0, err := noBand.Decide(f.summary, map[string]int{"work": 16})
	if err != nil || d0 == nil {
		t.Fatal(err)
	}
	want := d0.Desired["work"]
	if want == 16 {
		t.Skip("fixture produced no change; dead band has nothing to damp")
	}

	banded := base
	banded.DeadBandFraction = 0.9 // suppress anything below a 90% change
	sc, err := NewElasticScaler(banded, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := sc.Decide(f.summary, map[string]int{"work": 16})
	if err != nil || d1 == nil {
		t.Fatal(err)
	}
	if len(d1.Actions) != 0 {
		t.Errorf("dead band did not suppress small change %d -> %d: %v", 16, want, d1.Actions)
	}
}

func TestElasticScalerHoldsScaleDownOnLowCoverage(t *testing.T) {
	// Light load at p=64 wants a scale-down, but the summary is
	// synthetically truncated: only 16 of the 64 work tasks have fresh
	// reports (the rest just crashed). Coverage 0.25 < MinCoverage 0.5
	// must hold the scale-down.
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	v := f.summary.Vertices["work"]
	v.FreshTasks = 16
	f.summary.Vertices["work"] = v

	sc, err := NewElasticScaler(DefaultScalerConfig(), f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[string]int{"work": 64}
	d, err := sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	if len(d.Actions) != 0 || d.Desired["work"] != 64 {
		t.Errorf("scale-down issued under low coverage: desired=%d actions=%v", d.Desired["work"], d.Actions)
	}
	cd := d.PerConstraint[0]
	if !cd.LowCoverage || !almostEqual(cd.Coverage, 0.25, 1e-12) {
		t.Errorf("coverage not recorded: %+v", cd)
	}
	if sc.HeldScaleDowns() != 1 {
		t.Errorf("HeldScaleDowns: got %d, want 1", sc.HeldScaleDowns())
	}

	// Once the reporters are back (fresh == parallelism), the same load
	// does scale down.
	v.FreshTasks = 64
	f.summary.Vertices["work"] = v
	d, err = sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("recovered decide: d=%v err=%v", d, err)
	}
	if d.Desired["work"] >= 64 {
		t.Errorf("scale-down still held after coverage recovered: %d", d.Desired["work"])
	}
}

func TestElasticScalerLowCoverageAllowsScaleUp(t *testing.T) {
	// A bottleneck with most reporters dead: the scale-up must go
	// through even though coverage is far below the threshold.
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // ρ = 1.5
	v := f.summary.Vertices["work"]
	v.FreshTasks = 1
	f.summary.Vertices["work"] = v

	sc, err := NewElasticScaler(DefaultScalerConfig(), f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Decide(f.summary, map[string]int{"work": 8})
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	if !d.HasScaleUp() {
		t.Error("low coverage suppressed a bottleneck scale-up")
	}
	if !d.PerConstraint[0].LowCoverage {
		t.Error("low coverage not flagged on the decision")
	}
	if sc.HeldScaleDowns() != 0 {
		t.Errorf("HeldScaleDowns: got %d, want 0", sc.HeldScaleDowns())
	}
}

func TestElasticScalerCoverageDisabled(t *testing.T) {
	// MinCoverage = 0 disables the hold: stale summaries scale down as
	// before (backwards compatibility for struct-literal configs).
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	v := f.summary.Vertices["work"]
	v.FreshTasks = 0
	f.summary.Vertices["work"] = v

	cfg := DefaultScalerConfig()
	cfg.MinCoverage = 0
	sc, err := NewElasticScaler(cfg, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Decide(f.summary, map[string]int{"work": 64})
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	if d.Desired["work"] >= 64 {
		t.Errorf("disabled coverage gate still held the scale-down: %d", d.Desired["work"])
	}
}

func TestElasticScalerDeadBandKeepsBottleneckUps(t *testing.T) {
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // ρ = 1.5 bottleneck
	cfg := DefaultScalerConfig()
	cfg.DeadBandFraction = 10 // absurd band; bottleneck ups must pass anyway
	sc, err := NewElasticScaler(cfg, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Decide(f.summary, map[string]int{"work": 8})
	if err != nil || d == nil {
		t.Fatal(err)
	}
	if !d.HasScaleUp() {
		t.Error("dead band suppressed a bottleneck scale-up")
	}
}

// TestElasticScalerFitsTailFromSummary: Decide is the tail fitter's only
// feed. It folds the summary's queue-wait window in after planning — also
// during an inactivity phase — with κ's denominator the ingoing edge's
// QueueWait(), the mean e is fitted on, so the κ-inflated model reproduces
// the window's quantile at the current parallelism.
func TestElasticScalerFitsTailFromSummary(t *testing.T) {
	f := newScalerFixture(t, 50, 0.01, 8, 200*time.Millisecond)
	f.constraint.Quantile = 0.99
	win := sketch.NewDefault()
	for i := 1; i <= 100; i++ {
		win.Add(float64(i) * 1e-4) // p99 = 9.9 ms, mean 5.05 ms
	}
	vs := f.summary.Vertices["work"]
	vs.WaitWindow = win
	f.summary.Vertices["work"] = vs
	cfg := DefaultScalerConfig()
	cfg.InactivityIntervals = 1
	sc, err := NewElasticScaler(cfg, f.g, []*model.Constraint{f.constraint})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[string]int{"work": 8}

	// Interval 1 is planned on the mean model: no window was folded yet.
	d, err := sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("first decision: d=%v err=%v", d, err)
	}
	if vm := d.PerConstraint[0].Models[0]; vm.Kappa != 1 || vm.TailFit != TailFitMean {
		t.Errorf("first plan used κ=%v (%s), want the mean fallback", vm.Kappa, vm.TailFit)
	}
	// QueueWait(src->work) = 4 ms − 2 ms, not the window's own 5.05 ms.
	want := win.Quantile(0.99) / 0.002
	if len(d.TailFit) != 1 || d.TailFit[0].Vertex != "work" || !almostEqual(d.TailFit[0].Kappa, want, 1e-9) {
		t.Fatalf("decision's tail fit = %+v, want κ(work) = %v", d.TailFit, want)
	}

	// Interval 2 plans with it: the model's wait at the current
	// parallelism is the measured quantile.
	d, err = sc.Decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("second decision: d=%v err=%v", d, err)
	}
	vm := d.PerConstraint[0].Models[0]
	if vm.TailFit != TailFitFresh || !almostEqual(vm.Wait(8), win.Quantile(0.99), 1e-9) {
		t.Errorf("second plan: fit %q, W(8) = %v, want the window's p99 %v", vm.TailFit, vm.Wait(8), win.Quantile(0.99))
	}

	// An inactivity interval returns no decision but still closes its
	// window.
	f.summary.Vertices["work"] = qos.VertexStats{
		ServiceTimeMean: 0.01, InterarrivalMean: 1.0 / 150, Parallelism: 8, FreshTasks: 8, WaitWindow: win,
	}
	if d, err = sc.Decide(f.summary, cur); err != nil || d == nil || !d.HasScaleUp() {
		t.Fatalf("bottleneck decision: d=%v err=%v", d, err)
	}
	before := sc.TailFitter().Snapshot()[0].Windows
	if d, err = sc.Decide(f.summary, cur); err != nil || d != nil {
		t.Fatalf("inactivity interval: d=%v err=%v", d, err)
	}
	if got := sc.TailFitter().Snapshot()[0].Windows; got != before+1 {
		t.Errorf("windows folded across the inactivity interval: %d -> %d, want +1", before, got)
	}
}
