package master

import (
	"math"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
	"nephelix/internal/probe"
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

// scaler is an elastic loop over a fixture's job that hands back the
// decision each interval's observers saw.
type scaler struct {
	*Loop
	rt   *fakeRuntime
	last *core.Decision
}

func newScaler(t *testing.T, cfg core.ScalerConfig, f *scalerFixture) *scaler {
	t.Helper()
	sc := &scaler{rt: &fakeRuntime{par: map[string]int{"work": 0}}}
	l, err := New(f.g, []*model.Constraint{f.constraint}, cfg, true, probe.NewProbeSet(),
		func(iv Interval) { sc.last = iv.Decision })
	if err != nil {
		t.Fatal(err)
	}
	sc.Loop = l
	return sc
}

// decide runs one interval on s at parallelism current and returns its
// decision: nil during the inactivity phase.
func (sc *scaler) decide(s *qos.Summary, current map[string]int) (*core.Decision, error) {
	sc.last = nil
	err := sc.StepSummary(sc.rt, current, s)
	return sc.last, err
}

func holdsFor(d *core.Decision, reason string) int {
	n := 0
	for _, h := range d.Holds {
		if h.Reason == reason {
			n++
		}
	}
	return n
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestScalerInactivityWindow(t *testing.T) {
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // bottleneck → scale-up
	sc := newScaler(t, core.DefaultScalerConfig(), f)
	cur := map[string]int{"work": 8}
	decisions, ups := 0, 0
	count := func(d *core.Decision) {
		if d == nil {
			return
		}
		decisions++
		for _, a := range d.Actions {
			if a.IsScaleUp() {
				ups++
			}
		}
	}
	d, err := sc.decide(f.summary, cur)
	if err != nil || d == nil || !d.HasScaleUp() {
		t.Fatalf("first decision: d=%v err=%v", d, err)
	}
	count(d)
	// The next two adjustment intervals are the inactivity phase.
	for i := 0; i < 2; i++ {
		d, err = sc.decide(f.summary, cur)
		if err != nil || d != nil {
			t.Fatalf("inactivity interval %d: d=%v err=%v", i, d, err)
		}
	}
	// Afterwards decisions resume.
	d, err = sc.decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("post-inactivity decision: d=%v err=%v", d, err)
	}
	count(d)
	if decisions != 2 || ups < 2 {
		t.Errorf("stats: decisions=%d ups=%d", decisions, ups)
	}
}

func TestScalerNoCooldownAfterScaleDown(t *testing.T) {
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond) // light load → scale-down
	sc := newScaler(t, core.DefaultScalerConfig(), f)
	cur := map[string]int{"work": 64}
	d, err := sc.decide(f.summary, cur)
	if err != nil || d == nil || d.HasScaleUp() {
		t.Fatalf("first decision: %+v err=%v", d, err)
	}
	// Scale-downs do not trigger the inactivity phase.
	d, err = sc.decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("second decision suppressed after scale-down: d=%v err=%v", d, err)
	}
}

func TestNewValidatesConstraints(t *testing.T) {
	f := newScalerFixture(t, 10, 0.001, 8, 20*time.Millisecond)
	if _, err := New(f.g, nil, core.DefaultScalerConfig(), true, probe.NewProbeSet()); err == nil {
		t.Error("scaler without constraints must error")
	}
	bad := &model.Constraint{Name: "bad", Sequence: f.constraint.Sequence, Bound: -1, Window: time.Second}
	if _, err := New(f.g, []*model.Constraint{bad}, core.DefaultScalerConfig(), true, probe.NewProbeSet()); err == nil {
		t.Error("invalid constraint must error")
	}
}

func TestScalerScaleDownClamp(t *testing.T) {
	// Light load at p=64 wants a deep scale-down; the clamp limits each
	// decision to the configured fraction.
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	cfg := core.DefaultScalerConfig()
	cfg.MaxScaleDownFraction = 0.25
	sc := newScaler(t, cfg, f)
	d, err := sc.decide(f.summary, map[string]int{"work": 64})
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

func TestScalerDeadBand(t *testing.T) {
	// Moderate load at p=16; the optimizer would nudge by a task or two.
	f := newScalerFixture(t, 40, 0.003, 16, 20*time.Millisecond)
	base := core.DefaultScalerConfig()
	base.MaxScaleDownFraction = 1 // isolate the dead band
	d0, err := newScaler(t, base, f).decide(f.summary, map[string]int{"work": 16})
	if err != nil || d0 == nil {
		t.Fatal(err)
	}
	want := d0.Desired["work"]
	if want == 16 {
		t.Skip("fixture produced no change; dead band has nothing to damp")
	}

	banded := base
	banded.DeadBandFraction = 0.9 // suppress anything below a 90% change
	d1, err := newScaler(t, banded, f).decide(f.summary, map[string]int{"work": 16})
	if err != nil || d1 == nil {
		t.Fatal(err)
	}
	if len(d1.Actions) != 0 {
		t.Errorf("dead band did not suppress small change %d -> %d: %v", 16, want, d1.Actions)
	}
}

func TestScalerHoldsScaleDownOnLowCoverage(t *testing.T) {
	// Light load at p=64 wants a scale-down, but the summary is
	// synthetically truncated: only 16 of the 64 work tasks have fresh
	// reports (the rest just crashed). Coverage 0.25 < MinCoverage 0.5
	// must hold the scale-down.
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	v := f.summary.Vertices["work"]
	v.FreshTasks = 16
	f.summary.Vertices["work"] = v

	sc := newScaler(t, core.DefaultScalerConfig(), f)
	cur := map[string]int{"work": 64}
	d, err := sc.decide(f.summary, cur)
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
	if n := holdsFor(d, "low-coverage"); n != 1 {
		t.Errorf("low-coverage holds: got %d, want 1", n)
	}

	// Once the reporters are back (fresh == parallelism), the same load
	// does scale down.
	v.FreshTasks = 64
	f.summary.Vertices["work"] = v
	d, err = sc.decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("recovered decide: d=%v err=%v", d, err)
	}
	if d.Desired["work"] >= 64 {
		t.Errorf("scale-down still held after coverage recovered: %d", d.Desired["work"])
	}
}

func TestScalerLowCoverageAllowsScaleUp(t *testing.T) {
	// A bottleneck with most reporters dead: the scale-up must go
	// through even though coverage is far below the threshold.
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // ρ = 1.5
	v := f.summary.Vertices["work"]
	v.FreshTasks = 1
	f.summary.Vertices["work"] = v

	d, err := newScaler(t, core.DefaultScalerConfig(), f).decide(f.summary, map[string]int{"work": 8})
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	if !d.HasScaleUp() {
		t.Error("low coverage suppressed a bottleneck scale-up")
	}
	if !d.PerConstraint[0].LowCoverage {
		t.Error("low coverage not flagged on the decision")
	}
	if n := holdsFor(d, "low-coverage"); n != 0 {
		t.Errorf("low-coverage holds: got %d, want 0", n)
	}
}

func TestScalerCoverageDisabled(t *testing.T) {
	// MinCoverage = 0 disables the hold: stale summaries scale down as
	// before (backwards compatibility for struct-literal configs).
	f := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	v := f.summary.Vertices["work"]
	v.FreshTasks = 0
	f.summary.Vertices["work"] = v

	cfg := core.DefaultScalerConfig()
	cfg.MinCoverage = 0
	d, err := newScaler(t, cfg, f).decide(f.summary, map[string]int{"work": 64})
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	if d.Desired["work"] >= 64 {
		t.Errorf("disabled coverage gate still held the scale-down: %d", d.Desired["work"])
	}
}

func TestScalerDeadBandKeepsBottleneckUps(t *testing.T) {
	f := newScalerFixture(t, 150, 0.01, 8, 20*time.Millisecond) // ρ = 1.5 bottleneck
	cfg := core.DefaultScalerConfig()
	cfg.DeadBandFraction = 10 // absurd band; bottleneck ups must pass anyway
	d, err := newScaler(t, cfg, f).decide(f.summary, map[string]int{"work": 8})
	if err != nil || d == nil {
		t.Fatal(err)
	}
	if !d.HasScaleUp() {
		t.Error("dead band suppressed a bottleneck scale-up")
	}
}

// TestScalerFitsTailFromSummary: the loop is the tail fitter's only feed.
// It folds the summary's queue-wait window in after planning — also
// during an inactivity phase — with κ's denominator the ingoing edge's
// QueueWait(), the mean e is fitted on, so the κ-inflated model reproduces
// the window's quantile at the current parallelism.
func TestScalerFitsTailFromSummary(t *testing.T) {
	f := newScalerFixture(t, 50, 0.01, 8, 200*time.Millisecond)
	f.constraint.Quantile = 0.99
	win := sketch.NewDefault()
	for i := 1; i <= 100; i++ {
		win.Add(float64(i) * 1e-4) // p99 = 9.9 ms, mean 5.05 ms
	}
	vs := f.summary.Vertices["work"]
	vs.WaitWindow = win
	f.summary.Vertices["work"] = vs
	cfg := core.DefaultScalerConfig()
	cfg.InactivityIntervals = 1
	sc := newScaler(t, cfg, f)
	cur := map[string]int{"work": 8}

	// Interval 1 is planned on the mean model: no window was folded yet.
	d, err := sc.decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("first decision: d=%v err=%v", d, err)
	}
	if vm := d.PerConstraint[0].Models[0]; vm.Kappa != 1 || vm.TailFit != core.TailFitMean {
		t.Errorf("first plan used κ=%v (%s), want the mean fallback", vm.Kappa, vm.TailFit)
	}
	// QueueWait(src->work) = 4 ms − 2 ms, not the window's own 5.05 ms.
	want := win.Quantile(0.99) / 0.002
	if len(d.TailFit) != 1 || d.TailFit[0].Vertex != "work" || !almostEqual(d.TailFit[0].Kappa, want, 1e-9) {
		t.Fatalf("decision's tail fit = %+v, want κ(work) = %v", d.TailFit, want)
	}

	// Interval 2 plans with it: the model's wait at the current
	// parallelism is the measured quantile.
	d, err = sc.decide(f.summary, cur)
	if err != nil || d == nil {
		t.Fatalf("second decision: d=%v err=%v", d, err)
	}
	vm := d.PerConstraint[0].Models[0]
	if vm.TailFit != core.TailFitFresh || !almostEqual(vm.Wait(8), win.Quantile(0.99), 1e-9) {
		t.Errorf("second plan: fit %q, W(8) = %v, want the window's p99 %v", vm.TailFit, vm.Wait(8), win.Quantile(0.99))
	}

	// An inactivity interval returns no decision but still closes its
	// window.
	f.summary.Vertices["work"] = qos.VertexStats{
		ServiceTimeMean: 0.01, InterarrivalMean: 1.0 / 150, Parallelism: 8, FreshTasks: 8, WaitWindow: win,
	}
	if d, err = sc.decide(f.summary, cur); err != nil || d == nil || !d.HasScaleUp() {
		t.Fatalf("bottleneck decision: d=%v err=%v", d, err)
	}
	before := sc.TailFitter().Snapshot()[0].Windows
	if d, err = sc.decide(f.summary, cur); err != nil || d != nil {
		t.Fatalf("inactivity interval: d=%v err=%v", d, err)
	}
	if got := sc.TailFitter().Snapshot()[0].Windows; got != before+1 {
		t.Errorf("windows folded across the inactivity interval: %d -> %d, want +1", before, got)
	}
}

// TestObsDecideExposesAuditData: the loop's decision must surface the
// fitted model inputs, the descent steps and any gating holds so the
// flight recorder can export them.
func TestObsDecideExposesAuditData(t *testing.T) {
	// Moderate load at p=32: the Rebalance path runs and scales down.
	f := newScalerFixture(t, 20, 0.002, 32, 20*time.Millisecond)
	d, err := newScaler(t, core.DefaultScalerConfig(), f).decide(f.summary, map[string]int{"work": 32})
	if err != nil || d == nil {
		t.Fatalf("decide: d=%v err=%v", d, err)
	}
	cd := d.PerConstraint[0]
	if cd.Bottleneck || cd.Skipped {
		t.Fatalf("expected the Rebalance path: %+v", cd)
	}
	if len(cd.Models) == 0 {
		t.Fatal("no fitted models recorded on the Rebalance path")
	}
	m := cd.Models[0]
	if m.Name != "work" {
		t.Errorf("model vertex = %q, want work", m.Name)
	}
	if m.Lambda <= 0 || m.SMean <= 0 || m.CA2 <= 0 || m.CS2 <= 0 {
		t.Errorf("Kingman inputs not captured: λ=%v s̄=%v cA²=%v cS²=%v", m.Lambda, m.SMean, m.CA2, m.CS2)
	}
	if cd.QueueWaitLimit <= 0 {
		t.Errorf("queue-wait budget not recorded: %v", cd.QueueWaitLimit)
	}
	if len(cd.Steps) == 0 {
		t.Error("no descent steps recorded")
	}

	// The scale-down clamp must show up as a hold when it bites.
	clamped := core.DefaultScalerConfig()
	clamped.MaxScaleDownFraction = 0.05
	f2 := newScalerFixture(t, 10, 0.001, 64, 20*time.Millisecond)
	d2, err := newScaler(t, clamped, f2).decide(f2.summary, map[string]int{"work": 64})
	if err != nil || d2 == nil {
		t.Fatalf("decide: d=%v err=%v", d2, err)
	}
	var clampHolds int
	for _, h := range d2.Holds {
		if h.Reason == "scale-down-clamp" && h.Vertex == "work" {
			clampHolds++
			if h.Kept <= h.Proposed {
				t.Errorf("clamp hold should keep more than proposed: %+v", h)
			}
		}
	}
	if clampHolds != 1 {
		t.Errorf("scale-down clamp recorded %d holds, want 1 (%+v)", clampHolds, d2.Holds)
	}
}
