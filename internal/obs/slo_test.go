package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
	"nephelix/internal/obs/ts"
	"nephelix/internal/probe"
)

// TestObsSLOTrackerBudget pins the error-budget arithmetic: budget is
// the allowed bad fraction 1−q, remaining budget falls linearly with
// the bad fraction and goes negative when overspent.
func TestObsSLOTrackerBudget(t *testing.T) {
	tr := NewSLOTracker(4)
	target := SLOTarget{Constraint: "c", Quantile: 0.99, BoundSeconds: 0.1}

	st, transition := tr.Observe(target, 1000, 0, 0.05)
	if transition {
		t.Error("no violation expected on a met target")
	}
	if st.ErrorBudgetRemaining != 1 {
		t.Errorf("untouched budget = %v, want 1", st.ErrorBudgetRemaining)
	}
	// 10 bad of 1000 at q=0.99: bad fraction 0.01 == allowed 0.01 →
	// budget exactly spent.
	st, _ = tr.Observe(target, 1000, 10, 0.05)
	if math.Abs(st.ErrorBudgetRemaining) > 1e-12 {
		t.Errorf("exactly-spent budget = %v, want 0", st.ErrorBudgetRemaining)
	}
	// 20 bad of 1000: budget overspent → −1.
	st, _ = tr.Observe(target, 1000, 20, 0.05)
	if math.Abs(st.ErrorBudgetRemaining+1) > 1e-12 {
		t.Errorf("overspent budget = %v, want -1", st.ErrorBudgetRemaining)
	}
	if st.BadFraction != 0.02 {
		t.Errorf("bad fraction = %v, want 0.02", st.BadFraction)
	}
}

// TestObsSLOTrackerBurnWindow: the burn rate differentiates against the
// oldest ring entry, so a burst of bad records shows a high windowed
// burn that decays as the window slides past it.
func TestObsSLOTrackerBurnWindow(t *testing.T) {
	tr := NewSLOTracker(3)
	target := SLOTarget{Constraint: "c", Quantile: 0.99, BoundSeconds: 0.1}

	// Until the ring is full the burn rate stays 0 (no oldest point to
	// differentiate against; whole-run state is the budget's job).
	for i := uint64(1); i <= 3; i++ {
		st, _ := tr.Observe(target, i*100, 0, 0.01)
		if st.BurnRate != 0 {
			t.Errorf("interval %d: burn = %v before ring fills, want 0", i, st.BurnRate)
		}
	}
	// Burst: +100 observations, +10 bad in the window (Δ vs oldest =
	// ring[next] = {100,0}): windowed bad fraction (10-0)/(400-100)=1/30,
	// over budget 0.01 → ~3.33.
	st, _ := tr.Observe(target, 400, 10, 0.05)
	want := (10.0 / 300.0) / 0.01
	if math.Abs(st.BurnRate-want) > 1e-9 {
		t.Errorf("burst burn = %v, want %v", st.BurnRate, want)
	}
	// Quiet intervals slide the burst out of the window: once the oldest
	// point already includes the 10 bad, the windowed burn returns to 0.
	tr.Observe(target, 500, 10, 0.01)
	tr.Observe(target, 600, 10, 0.01)
	st, _ = tr.Observe(target, 700, 10, 0.01)
	if st.BurnRate != 0 {
		t.Errorf("post-burst burn = %v, want 0", st.BurnRate)
	}
}

// TestObsSLOTrackerViolationTransitions: Violated tracks the estimate
// vs bound, and Violations counts only met→violated edges.
func TestObsSLOTrackerViolationTransitions(t *testing.T) {
	tr := NewSLOTracker(0)
	target := SLOTarget{Constraint: "c", Quantile: 0.99, BoundSeconds: 0.1}

	st, transition := tr.Observe(target, 10, 0, 0.2)
	if !transition || !st.Violated || st.Violations != 1 {
		t.Errorf("first breach: transition=%v violated=%v n=%d", transition, st.Violated, st.Violations)
	}
	st, transition = tr.Observe(target, 20, 0, 0.3)
	if transition || !st.Violated || st.Violations != 1 {
		t.Errorf("sustained breach must not re-count: transition=%v n=%d", transition, st.Violations)
	}
	st, transition = tr.Observe(target, 30, 0, 0.05)
	if transition || st.Violated {
		t.Errorf("recovery: transition=%v violated=%v", transition, st.Violated)
	}
	st, transition = tr.Observe(target, 40, 0, 0.2)
	if !transition || st.Violations != 2 {
		t.Errorf("second breach: transition=%v n=%d", transition, st.Violations)
	}
	// Zero observations never violate, whatever the estimate says.
	if st, _ := tr.Observe(SLOTarget{Constraint: "empty", Quantile: 0.99, BoundSeconds: 0.1}, 0, 0, 9); st.Violated {
		t.Error("empty target reported violated")
	}

	// Nil tracker is a no-op.
	var nilTr *SLOTracker
	if st, tr2 := nilTr.Observe(target, 1, 1, 1); tr2 || st.Count != 0 {
		t.Error("nil tracker not inert")
	}
	if nilTr.Snapshot() != nil {
		t.Error("nil tracker snapshot not nil")
	}
}

// TestObsTelemetrySLOViolationEvent: ObserveSLO publishes the budget
// gauges and records a KindSLOViolation lifecycle event exactly on
// met→violated transitions.
func TestObsTelemetrySLOViolationEvent(t *testing.T) {
	tel := NewTelemetry(64)
	rec := NewRecorder(16)
	target := SLOTarget{Constraint: "c1", Quantile: 0.99, BoundSeconds: 0.1}

	tel.ObserveSLO(1, target, 100, 0, 0.05, rec)
	if rec.Len() != 0 {
		t.Fatalf("met target recorded %d events, want 0", rec.Len())
	}
	tel.ObserveSLO(2, target, 200, 4, 0.15, rec)
	tel.ObserveSLO(3, target, 300, 4, 0.2, rec) // sustained: no new event
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != KindSLOViolation || ev.Lifecycle == nil {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.Lifecycle.Constraint != "c1" || ev.Lifecycle.BoundSeconds != 0.1 ||
		ev.Lifecycle.EstimateSeconds != 0.15 || ev.Lifecycle.Quantile != 0.99 {
		t.Errorf("violation payload %+v", ev.Lifecycle)
	}

	snap := tel.SLOSnapshot()
	if len(snap) != 1 || !snap[0].Violated || snap[0].Violations != 1 {
		t.Errorf("SLOSnapshot = %+v", snap)
	}
	// The snapshot rides the timeseries payload for the dashboard.
	full := tel.Snapshot("", 0, 10)
	if len(full.SLO) != 1 || full.SLO[0].Constraint != "c1" {
		t.Errorf("TimeseriesSnapshot.SLO = %+v", full.SLO)
	}
	// Budget gauges exist.
	found := 0
	for _, s := range full.Series {
		switch s.Name {
		case "nephelix_slo_error_budget_remaining", "nephelix_slo_burn_rate",
			"nephelix_slo_estimate_seconds", "nephelix_slo_bound_seconds",
			"nephelix_slo_violations_total":
			if s.Labels["constraint"] == "c1" {
				found++
			}
		}
	}
	if found != 5 {
		t.Errorf("found %d SLO series, want 5", found)
	}
}

// TestObsTelemetrySLOFallback: ObserveSLOs derives counts from the
// telemetry's own e2e sketch when no probe has a bound, and from the
// bounded probes alone — at their own quantile — once one does.
func TestObsTelemetrySLOFallback(t *testing.T) {
	tel := NewTelemetry(64)
	rec := NewRecorder(16)
	for i := 0; i < 99; i++ {
		tel.ObserveE2E(1, 0.010)
	}
	tel.ObserveE2E(1, 0.500) // one bad record over a 100ms bound
	targets := []SLOTarget{{Constraint: "c", Quantile: 0.99, BoundSeconds: 0.1}}
	probes := probe.NewProbeSet()
	probes.Probe("unbounded").Record(0.3)
	(*Telemetry)(nil).ObserveSLOs(2, probes, targets, rec)
	tel.ObserveSLOs(2, probes, targets, rec)

	probed := NewTelemetry(64)
	probes.SetBound("path", 0.1)
	probes.SetQuantile("path", 0.9)
	for i := 0; i < 10; i++ {
		probes.Probe("path").Record(0.2)
	}
	probed.ObserveSLOs(2, probes, targets, nil)
	if snap := probed.SLOSnapshot(); len(snap) != 1 || snap[0].Constraint != "path" ||
		snap[0].Quantile != 0.9 || snap[0].Count != 10 || snap[0].Bad != 10 {
		t.Errorf("probe-driven snapshot %+v, want one cell for \"path\" at q=0.9 with 10/10 bad", snap)
	}

	snap := tel.SLOSnapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	st := snap[0]
	if st.Count != 100 || st.Bad != 1 {
		t.Errorf("count=%d bad=%d, want 100/1", st.Count, st.Bad)
	}
	// 1% bad at a 1% budget: exactly spent.
	if math.Abs(st.ErrorBudgetRemaining) > 1e-9 {
		t.Errorf("budget remaining = %v, want 0", st.ErrorBudgetRemaining)
	}
	// p99 over {99×10ms, 1×500ms} is the 99th value = 10ms (±α).
	if st.EstimateSeconds > 0.011 {
		t.Errorf("p99 estimate = %v, want ~0.010", st.EstimateSeconds)
	}
	if st.Violated {
		t.Error("p99 within bound must not violate")
	}
}

// TestObsSLOEndpoint: /slo serves the tracked targets as JSON and
// degrades to an empty targets list without a telemetry plane.
func TestObsSLOEndpoint(t *testing.T) {
	tel := NewTelemetry(64)
	tel.ObserveSLO(1, SLOTarget{Constraint: "c1", Quantile: 0.99, BoundSeconds: 0.215}, 50, 2, 0.18, nil)
	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Targets []SLOStatus `json:"targets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("/slo is not JSON: %v", err)
	}
	if len(payload.Targets) != 1 {
		t.Fatalf("targets = %+v", payload.Targets)
	}
	st := payload.Targets[0]
	if st.Constraint != "c1" || st.BoundSeconds != 0.215 || st.Count != 50 || st.Bad != 2 {
		t.Errorf("payload %+v", st)
	}

	// No telemetry: empty, well-formed payload.
	bare := httptest.NewServer(NewHandler(ServerConfig{}))
	defer bare.Close()
	resp2, err := bare.Client().Get(bare.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var empty struct {
		Targets []SLOStatus `json:"targets"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&empty); err != nil {
		t.Fatalf("empty /slo is not JSON: %v", err)
	}
	if empty.Targets == nil || len(empty.Targets) != 0 {
		t.Errorf("empty /slo targets = %#v, want []", empty.Targets)
	}
}

// TestObsTailGaugesAndExposition: ObserveInterval publishes the e2e
// tail quantile gauges, and /metrics renders the e2e sketch as a
// Prometheus summary with quantile labels.
func TestObsTailGaugesAndExposition(t *testing.T) {
	tel := NewTelemetry(64)
	for i := 1; i <= 1000; i++ {
		tel.ObserveE2E(1, float64(i)*0.001)
	}
	tel.ObserveInterval(2, nil, nil, nil)

	snap := tel.Snapshot("nephelix_tail_e2e_seconds", 0, 10)
	byQ := map[string]float64{}
	for _, s := range snap.Series {
		if len(s.Points) > 0 {
			byQ[s.Labels["q"]] = s.Points[len(s.Points)-1].V
		}
	}
	for _, q := range []string{"p50", "p90", "p95", "p99", "p999"} {
		if _, ok := byQ[q]; !ok {
			t.Fatalf("missing tail gauge %q (have %v)", q, byQ)
		}
	}
	if !(byQ["p50"] < byQ["p99"] && byQ["p99"] <= byQ["p999"]) {
		t.Errorf("tail quantiles not monotone: %v", byQ)
	}
	if math.Abs(byQ["p99"]-0.990) > 0.990*0.02 {
		t.Errorf("p99 gauge = %v, want ~0.990", byQ["p99"])
	}

	var b strings.Builder
	ts.WriteExposition(&b, tel.Store().Query("", 0, 0))
	out := b.String()
	for _, want := range []string{
		"# TYPE nephelix_e2e_latency_tail_seconds summary",
		`nephelix_e2e_latency_tail_seconds{quantile="0.99"}`,
		"nephelix_e2e_latency_tail_seconds_count 1000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestObsTelemetryObserveHop: per-hop sketches land in per-edge and
// per-vertex sketch series.
func TestObsTelemetryObserveHop(t *testing.T) {
	tel := NewTelemetry(64)
	for i := 0; i < 100; i++ {
		tel.ObserveHop(1, "worker", "src->worker", 0.001, 0, 0.002, 0.004)
	}
	names := map[string]bool{}
	for _, s := range tel.Snapshot("nephelix_hop_", 0, 10).Series {
		names[s.Name+"|"+s.Labels["edge"]+s.Labels["vertex"]] = true
	}
	for _, want := range []string{
		"nephelix_hop_batch_delay_seconds|src->worker",
		"nephelix_hop_transit_seconds|src->worker",
		"nephelix_hop_queue_wait_seconds|src->worker",
		"nephelix_hop_service_seconds|worker",
	} {
		if !names[want] {
			t.Errorf("missing hop series %q (have %v)", want, names)
		}
	}
}

// TestObsTracerTailAttribution: per-hop sketches identify a hop that
// dominates the tail but not the mean, at the quantile asked for.
func TestObsTracerTailAttribution(t *testing.T) {
	tr := NewTracer(1)
	// "edge a->b" has a modest constant latency; "b" (service) is cheap
	// on average but has a heavy tail: it should dominate p99 only.
	for i := 0; i < 1000; i++ {
		sp := tr.StartSpan(0)
		sp.Hop("b", "a->b", 0.020, 0, 0, 0.001)
		if i >= 980 { // ~2% of service samples: heavy tail
			sp = tr.StartSpan(0)
			sp.Hop("b", "a->b", 0.020, 0, 0, 0.300)
		}
		sp.Finish(0.02)
	}
	rep := tr.TailAttribution(0.99)
	if rep.Quantile != 0.99 {
		t.Fatalf("quantile = %v", rep.Quantile)
	}
	if rep.DominantMean != "edge a->b" {
		t.Errorf("dominant mean = %q, want edge a->b", rep.DominantMean)
	}
	if rep.DominantTail != "vertex b" {
		t.Errorf("dominant tail = %q, want vertex b", rep.DominantTail)
	}
	var shares float64
	for _, h := range rep.Hops {
		shares += h.TailShare
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("tail shares sum to %v, want 1", shares)
	}
	// The heavy 2 % sits above p90: attributed at q = 0.9, the same hops
	// rank the other way round, and the shares are the p90 shares.
	rep90 := tr.TailAttribution(0.9)
	if rep90.Quantile != 0.9 || rep90.DominantTail != "edge a->b" {
		t.Errorf("q=0.9: quantile %v, dominant tail %q, want 0.9 and edge a->b", rep90.Quantile, rep90.DominantTail)
	}
	for _, h := range rep90.Hops {
		if h.Kind == "vertex" && (h.TailShare > 0.1 || h.P99 < 0.2) {
			t.Errorf("q=0.9: vertex b share %v (p99 %v), want its p90 share of about 1/21", h.TailShare, h.P99)
		}
	}
	// Out-of-range quantile clamps to 0.99; nil tracer is inert.
	if rep := tr.TailAttribution(7); rep.Quantile != 0.99 {
		t.Errorf("clamped quantile = %v", rep.Quantile)
	}
	var nilTr *Tracer
	if rep := nilTr.TailAttribution(0.99); len(rep.Hops) != 0 {
		t.Error("nil tracer produced hops")
	}
	if s := rep.String(); !strings.Contains(s, "dominant at mean") {
		t.Errorf("report string missing dominance line:\n%s", s)
	}
}

// TestObsSketchSeriesKind: the ts store's sketch series kind records
// into a mergeable sketch and snapshots quantile summaries.
func TestObsSketchSeriesKind(t *testing.T) {
	store := ts.NewStore(8)
	lat := store.Family(ts.Sketch, "lat", "", "vertex")
	s := lat.With("v")
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i), float64(i))
	}
	if s.SketchCount() != 100 {
		t.Fatalf("count = %d", s.SketchCount())
	}
	if q := s.Quantile(0.5); math.Abs(q-50) > 50*0.02 {
		t.Errorf("p50 = %v, want ~50", q)
	}
	if got := s.CountAbove(90); got != 10 {
		t.Errorf("CountAbove(90) = %d, want 10", got)
	}
	snaps := store.Query("lat", 0, 10)
	if len(snaps) != 1 {
		t.Fatalf("snapshot count %d", len(snaps))
	}
	sn := snaps[0]
	if sn.Kind != "sketch" || sn.Alpha != sketch.DefaultAlpha || sn.Count != 100 || len(sn.Quantiles) == 0 {
		t.Errorf("snapshot %+v", sn)
	}
	// Same identity returns the same series; Observe on a non-sketch
	// kind ignores sketch accessors.
	if lat.With("v") != s {
		t.Error("sketch series identity not cached")
	}
	gf := store.Family(ts.Gauge, "g", "")
	g := gf.With()
	g.Set(1, 5)
	if g.Quantile(0.5) != 0 || g.SketchCount() != 0 {
		t.Error("non-sketch series leaked sketch state")
	}
}

// TestObsTailFitGauges: a decision's tail-fit snapshot is published as
// the percentile-constraint gauges — κ and the measured tail wait — per
// vertex and quantile, and percentile constraints carry their own
// quantile into the SLO targets.
func TestObsTailFitGauges(t *testing.T) {
	tel := NewTelemetry(64)
	fit := core.NewTailFitter(core.DefaultTailFitterConfig(), 0.99)
	fit.Observe("worker", 0.99, core.TailWindow{Count: 100, MeanWait: 0.05, TailWait: 0.099})
	tel.ObserveInterval(2, nil, &core.Decision{TailFit: fit.Snapshot()}, nil)
	kappa := fit.Kappa("worker", 0.99)

	got := map[string]float64{}
	for _, s := range tel.Snapshot("nephelix_tail_", 0, 10).Series {
		if len(s.Points) > 0 && s.Labels["vertex"] == "worker" {
			got[s.Name+"|"+s.Labels["q"]] = s.Points[len(s.Points)-1].V
		}
	}
	if v, ok := got["nephelix_tail_kappa|p99"]; !ok || v != kappa {
		t.Errorf("κ gauge = %v, %v; want %v published", v, ok, kappa)
	}
	if v, ok := got["nephelix_tail_wait_seconds|p99"]; !ok || v <= 0 {
		t.Errorf("tail wait gauge = %v, %v; want positive", v, ok)
	}

	var b strings.Builder
	ts.WriteExposition(&b, tel.Store().Query("", 0, 0))
	out := b.String()
	for _, want := range []string{
		`nephelix_tail_kappa{q="p99",vertex="worker"}`,
		`nephelix_tail_wait_seconds{q="p99",vertex="worker"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	seq := percentileTestSequence(t)
	targets := SLOTargetsFromConstraints([]*model.Constraint{
		{Name: "tail", Sequence: seq, Bound: 30 * time.Millisecond, Window: time.Second, Quantile: 0.95},
		{Name: "mean", Sequence: seq, Bound: 30 * time.Millisecond, Window: time.Second},
	})
	if targets[0].Quantile != 0.95 {
		t.Errorf("percentile constraint target quantile = %v, want 0.95", targets[0].Quantile)
	}
	if targets[1].Quantile != DefaultSLOQuantile {
		t.Errorf("mean constraint target quantile = %v, want default %v", targets[1].Quantile, DefaultSLOQuantile)
	}
}

// percentileTestSequence builds a minimal two-vertex sequence for
// constraint construction in tests.
func percentileTestSequence(t *testing.T) *model.Sequence {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "worker", Parallelism: 1, MinParallelism: 1, MaxParallelism: 4},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "worker", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "src->worker", "worker")
	if err != nil {
		t.Fatal(err)
	}
	return seq
}
