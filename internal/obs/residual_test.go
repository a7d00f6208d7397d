package obs

import (
	"math"
	"testing"

	"nephelix/internal/core"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// residualTestConstraint builds a src->server->sink constraint whose
// sequence starts with the src->server edge, so "server" has an ingoing
// edge to score predictions against.
func residualTestConstraint(t *testing.T) *model.Constraint {
	t.Helper()
	g := model.NewJobGraph()
	for _, name := range []string{"src", "server", "sink"} {
		if err := g.AddVertex(model.JobVertex{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "server", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("server", "sink", 0); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	return &model.Constraint{Name: "c", Sequence: seq}
}

func residualTestDecision(c *model.Constraint, vm *core.VertexModel, desired map[string]int, perCons map[string]int) *core.Decision {
	return &core.Decision{
		Desired: desired,
		PerConstraint: []core.ConstraintDecision{{
			Constraint:  c,
			Parallelism: perCons,
			Models:      []*core.VertexModel{vm},
		}},
	}
}

func summaryWithQueueWait(channel, batch float64) *qos.Summary {
	s := qos.NewSummary()
	s.Edges[model.EdgeKey{Source: "src", Target: "server"}] = qos.EdgeStats{
		ChannelLatency:     channel,
		OutputBatchLatency: batch,
	}
	return s
}

// TestObsResidualPairing: a prediction registered at decision time is
// scored against the NEXT interval's measured queue wait, with the
// Welford cell updated exactly once.
func TestObsResidualPairing(t *testing.T) {
	c := residualTestConstraint(t)
	m := NewResidualMonitor()
	vm := &core.VertexModel{Name: "server", Current: 4, A: 0.04, B: 2}
	d := residualTestDecision(c, vm, map[string]int{"server": 6}, map[string]int{"server": 6})

	// Interval 1: nothing pending yet; the decision registers W(6) = 0.04/(6-2).
	scored, _ := m.Observe(10, qos.NewSummary(), d)
	if len(scored) != 0 {
		t.Fatalf("first interval must score nothing, got %v", scored)
	}

	// Interval 2: the measured wait is 25ms − 10ms = 15ms.
	scored, _ = m.Observe(20, summaryWithQueueWait(0.025, 0.010), nil)
	if len(scored) != 1 {
		t.Fatalf("second interval must score one pair, got %d", len(scored))
	}
	sc := scored[0]
	if sc.Constraint != "c" || sc.Vertex != "server" || sc.At != 20 {
		t.Errorf("scored identity: %+v", sc)
	}
	if sc.Predicted != 0.01 || math.Abs(sc.Measured-0.015) > 1e-12 {
		t.Errorf("scored values: predicted %v measured %v, want 0.01 / 0.015", sc.Predicted, sc.Measured)
	}

	stats := m.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("cells: got %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Samples != 1 || math.Abs(st.ResidualMean-0.005) > 1e-12 {
		t.Errorf("residual: samples %d mean %v, want 1 / 0.005", st.Samples, st.ResidualMean)
	}
	if st.Over != 0 || st.Under != 1 || st.SignBias != -1 {
		t.Errorf("sign counts: over %d under %d bias %v", st.Over, st.Under, st.SignBias)
	}
	if math.Abs(st.MeanAbsRelErr-0.005/0.015) > 1e-12 || st.RelErrSamples != 1 {
		t.Errorf("rel err: %v over %d samples", st.MeanAbsRelErr, st.RelErrSamples)
	}
	if st.LastPredicted != 0.01 || math.Abs(st.LastMeasured-0.015) > 1e-12 || st.LastAt != 20 {
		t.Errorf("last pair: %+v", st)
	}
	if st.Drift {
		t.Errorf("one sample must not flag drift: %+v", st)
	}

	// Pending was cleared: a third interval with no decision scores nothing.
	scored, _ = m.Observe(30, summaryWithQueueWait(1, 0), nil)
	if len(scored) != 0 {
		t.Errorf("pending must clear after scoring, got %v", scored)
	}
}

// TestObsResidualTailPairing: a κ-inflated model's prediction is scored
// against the quantile of the vertex's queue-wait window in the next
// summary, not the edge mean; an interval without a window scores
// nothing.
func TestObsResidualTailPairing(t *testing.T) {
	c := residualTestConstraint(t)
	m := NewResidualMonitor()
	vm := &core.VertexModel{Name: "server", Current: 4, A: 0.04, B: 2, TailQuantile: 0.9}
	d := residualTestDecision(c, vm, map[string]int{"server": 6}, nil)
	m.Observe(10, qos.NewSummary(), d)
	if scored, _ := m.Observe(20, summaryWithQueueWait(0.025, 0.010), d); len(scored) != 0 {
		t.Fatalf("no wait window in the summary: scored %v, want none", scored)
	}

	win := sketch.NewDefault()
	for i := 1; i <= 10; i++ {
		win.Add(float64(i) * 0.01)
	}
	s := summaryWithQueueWait(0.025, 0.010)
	s.Vertices["server"] = qos.VertexStats{WaitWindow: win}
	scored, _ := m.Observe(30, s, nil)
	if len(scored) != 1 || scored[0].Predicted != 0.01 || scored[0].Measured != win.Quantile(0.9) {
		t.Fatalf("scored %+v, want W(6) = 0.01 against the window's p90 %v", scored, win.Quantile(0.9))
	}
}

// TestObsResidualParallelismFallback: the prediction uses Desired when
// present, else the constraint's Parallelism, else the model's Current.
func TestObsResidualParallelismFallback(t *testing.T) {
	c := residualTestConstraint(t)
	vm := &core.VertexModel{Name: "server", Current: 3, A: 0.04, B: 2}
	cases := []struct {
		name    string
		desired map[string]int
		perCons map[string]int
		wantP   int
	}{
		{"desired wins", map[string]int{"server": 6}, map[string]int{"server": 4}, 6},
		{"constraint parallelism", nil, map[string]int{"server": 4}, 4},
		{"model current", nil, nil, 3},
	}
	for _, tc := range cases {
		m := NewResidualMonitor()
		m.Observe(0, qos.NewSummary(), residualTestDecision(c, vm, tc.desired, tc.perCons))
		scored, _ := m.Observe(1, summaryWithQueueWait(0.5, 0), nil)
		if len(scored) != 1 {
			t.Fatalf("%s: scored %d pairs, want 1", tc.name, len(scored))
		}
		want := vm.Wait(tc.wantP)
		if scored[0].Predicted != want {
			t.Errorf("%s: predicted %v, want W(%d) = %v", tc.name, scored[0].Predicted, tc.wantP, want)
		}
	}
}

// TestObsResidualSkips: saturated predictions, skipped constraints,
// model-less decisions and head-of-sequence vertices register nothing.
func TestObsResidualSkips(t *testing.T) {
	c := residualTestConstraint(t)
	saturated := &core.VertexModel{Name: "server", Current: 2, A: 0.04, B: 5}

	cases := []struct {
		name string
		d    *core.Decision
	}{
		{"infinite prediction", residualTestDecision(c, saturated, map[string]int{"server": 4}, nil)},
		{"skipped constraint", &core.Decision{PerConstraint: []core.ConstraintDecision{{
			Constraint: c, Skipped: true,
			Models: []*core.VertexModel{{Name: "server", Current: 4, A: 0.04, B: 2}},
		}}}},
		{"no models", &core.Decision{PerConstraint: []core.ConstraintDecision{{Constraint: c}}}},
		{"head of sequence", residualTestDecision(c,
			&core.VertexModel{Name: "src", Current: 1, A: 0.04, B: 0}, nil, nil)},
	}
	for _, tc := range cases {
		m := NewResidualMonitor()
		m.Observe(0, qos.NewSummary(), tc.d)
		scored, _ := m.Observe(1, summaryWithQueueWait(0.5, 0), nil)
		if len(scored) != 0 {
			t.Errorf("%s: scored %v, want none", tc.name, scored)
		}
	}
}

// TestObsResidualDrift: sustained over-prediction trips both the
// high-rel-err and sign-bias flags once driftMinSamples pairs are scored,
// and the flags surface through Observe, DriftFlags and Snapshot
// consistently.
func TestObsResidualDrift(t *testing.T) {
	c := residualTestConstraint(t)
	m := NewResidualMonitor()
	vm := &core.VertexModel{Name: "server", Current: 4, A: 0.04, B: 2}
	d := residualTestDecision(c, vm, map[string]int{"server": 6}, nil)

	// W(6) = 10ms predicted, 2ms measured every interval: |rel err| = 4,
	// every prediction over.
	var flags []DriftFlag
	for i := 0; i <= driftMinSamples; i++ { // the first interval only registers
		_, flags = m.Observe(float64(i), summaryWithQueueWait(0.002, 0), d)
		if i < driftMinSamples && len(flags) != 0 {
			t.Fatalf("interval %d: drift before driftMinSamples: %v", i, flags)
		}
	}
	if len(flags) != 2 {
		t.Fatalf("drift flags: got %v, want high-rel-err + sign-bias", flags)
	}
	if flags[0].Reason != "high-rel-err" || flags[1].Reason != "sign-bias" {
		t.Errorf("flag order: %v, %v", flags[0].Reason, flags[1].Reason)
	}
	for _, f := range flags {
		if f.Constraint != "c" || f.Vertex != "server" || f.Samples != driftMinSamples {
			t.Errorf("flag identity: %+v", f)
		}
		if f.MeanAbsRelErr != 4 || f.SignBias != 1 {
			t.Errorf("flag stats: %+v", f)
		}
	}
	if got := m.DriftFlags(); len(got) != 2 {
		t.Errorf("DriftFlags: got %v", got)
	}
	st := m.Snapshot()[0]
	if !st.Drift || len(st.DriftReasons) != 2 {
		t.Errorf("snapshot drift: %+v", st)
	}
}

// TestObsResidualMerge: merging per-seed monitors equals feeding one
// monitor all the observations (the parallel Welford merge is exact for
// these counts).
func TestObsResidualMerge(t *testing.T) {
	c := residualTestConstraint(t)
	vm := &core.VertexModel{Name: "server", Current: 4, A: 0.04, B: 2}
	d := residualTestDecision(c, vm, map[string]int{"server": 6}, nil)

	waits := [][2]float64{{0.012, 0}, {0.008, 0}, {0.02, 0.002}, {0.005, 0.001}}
	pooled := NewResidualMonitor()
	a := NewResidualMonitor()
	b := NewResidualMonitor()
	for i, w := range waits {
		part := a
		if i >= 2 {
			part = b
		}
		part.Observe(float64(i), qos.NewSummary(), d)
		part.Observe(float64(i)+0.5, summaryWithQueueWait(w[0], w[1]), nil)
		pooled.Observe(float64(i), qos.NewSummary(), d)
		pooled.Observe(float64(i)+0.5, summaryWithQueueWait(w[0], w[1]), nil)
	}
	merged := NewResidualMonitor()
	merged.Merge(a)
	merged.Merge(b)

	want := pooled.Snapshot()
	got := merged.Snapshot()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("cells: merged %d pooled %d", len(got), len(want))
	}
	if got[0].Samples != want[0].Samples || got[0].Over != want[0].Over || got[0].Under != want[0].Under {
		t.Errorf("counts: merged %+v pooled %+v", got[0], want[0])
	}
	if math.Abs(got[0].ResidualMean-want[0].ResidualMean) > 1e-12 ||
		math.Abs(got[0].ResidualStdDev-want[0].ResidualStdDev) > 1e-9 ||
		math.Abs(got[0].MeanAbsRelErr-want[0].MeanAbsRelErr) > 1e-12 {
		t.Errorf("stats: merged %+v pooled %+v", got[0], want[0])
	}
	if got[0].LastAt != want[0].LastAt || got[0].LastMeasured != want[0].LastMeasured {
		t.Errorf("last pair: merged %+v pooled %+v", got[0], want[0])
	}
}

// TestObsResidualNil: every method on a nil monitor is a no-op.
func TestObsResidualNil(t *testing.T) {
	var m *ResidualMonitor
	scored, flags := m.Observe(0, qos.NewSummary(), nil)
	if scored != nil || flags != nil {
		t.Error("nil monitor must observe nothing")
	}
	if m.DriftFlags() != nil || m.Snapshot() != nil {
		t.Error("nil monitor must snapshot nothing")
	}
	m.Merge(NewResidualMonitor())
}
