package apps

import (
	"reflect"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

func quickStepSchedule() *workload.StepSchedule {
	return &workload.StepSchedule{
		WarmUpRate:     200,
		StepDelta:      200,
		IncrementSteps: 2,
		StepDuration:   20,
	}
}

func basePTOptions() PrimeTesterOptions {
	return PrimeTesterOptions{
		Sources:      2,
		Sinks:        2,
		PrimeTesters: 8,
		MinPT:        1,
		MaxPT:        32,
		Schedule:     quickStepSchedule(),
		Mode:         sim.BatchAdaptive,
		WorkerNodes:  16,
		SlotsPerNode: 4,
		Seed:         1,
	}
}

func TestBuildPrimeTesterGraphStructure(t *testing.T) {
	cfg, probes, err := BuildPrimeTester(basePTOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Graph
	// Figure 2: Source -> PrimeTester -> Sink, all round-robin.
	if len(g.Vertices()) != 3 || len(g.Edges()) != 2 {
		t.Fatalf("graph shape: %d vertices, %d edges", len(g.Vertices()), len(g.Edges()))
	}
	for _, e := range g.Edges() {
		if e.Pattern != model.PatternRoundRobin {
			t.Errorf("edge %s: pattern %v, want round-robin", e.Key(), e.Pattern)
		}
	}
	// The source is the one vertex without inbound edges, the sink the
	// one without outbound edges.
	for _, v := range g.Vertices() {
		if src := len(g.InEdges(v.Name)) == 0; src != (v.Name == PTSource) {
			t.Errorf("vertex %s: no inbound edges = %v", v.Name, src)
		}
		if sink := len(g.OutEdges(v.Name)) == 0; sink != (v.Name == PTSink) {
			t.Errorf("vertex %s: no outbound edges = %v", v.Name, sink)
		}
	}
	if probes.Probe(PrimeProbe) == nil {
		t.Error("probe missing")
	}
}

func TestBuildPrimeTesterValidation(t *testing.T) {
	opts := basePTOptions()
	opts.Sources = 0
	if _, _, err := BuildPrimeTester(opts); err == nil {
		t.Error("zero sources accepted")
	}
	opts = basePTOptions()
	opts.Schedule = nil
	if _, _, err := BuildPrimeTester(opts); err == nil {
		t.Error("nil schedule accepted")
	}
}

func TestBuildPrimeTesterConstraint(t *testing.T) {
	opts := basePTOptions()
	opts.ConstraintBound = 20 * time.Millisecond
	cfg, probes, err := BuildPrimeTester(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Constraints) != 1 {
		t.Fatalf("constraints: %d", len(cfg.Constraints))
	}
	c := cfg.Constraints[0]
	vs := c.Sequence.Vertices()
	if len(vs) != 1 || vs[0] != PTWorker {
		t.Errorf("constrained vertices: %v, want [PrimeTester]", vs)
	}
	if probes.Probe(PrimeProbe).BoundSeconds != 0.020 {
		t.Errorf("probe bound: %v", probes.Probe(PrimeProbe).BoundSeconds)
	}
}

// TestPrimeTesterIntegrationElastic runs a short scaled-down elastic job
// end to end: the constraint holds most of the time and the vertex scales
// with the load steps.
func TestPrimeTesterIntegrationElastic(t *testing.T) {
	opts := basePTOptions()
	opts.ConstraintBound = 30 * time.Millisecond
	opts.Elastic = true
	opts.PrimeTesters = 4
	s, err := newSim(t, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	summary := res.Probes[PrimeProbe]
	if summary.Count == 0 {
		t.Fatal("no latency observations")
	}
	if summary.Fulfillment < 0.6 {
		t.Errorf("constraint fulfillment %.2f too low for a moderate load", summary.Fulfillment)
	}
	// Peak rate 600/s at ~3.15 ms service needs ≥ 2 busy tasks plus
	// headroom; warm-up needs almost nothing.
	if res.PeakParallelism[PTWorker] < 3 {
		t.Errorf("peak parallelism %d, want ≥ 3", res.PeakParallelism[PTWorker])
	}
	if res.DroppedItems != 0 {
		t.Errorf("dropped %d items", res.DroppedItems)
	}
	if res.TaskHours <= 0 {
		t.Error("task hours not accounted")
	}
}

func newSim(t *testing.T, opts PrimeTesterOptions) (*sim.Sim, error) {
	t.Helper()
	cfg, probes, err := BuildPrimeTester(opts)
	if err != nil {
		return nil, err
	}
	return sim.New(cfg, probes)
}

// TestPrimeTesterBatchingOrdering reproduces the Figure 3 ordering on a
// small scale: instant flushing has the lowest latency at low load,
// fixed 16 KiB buffers the highest.
func TestPrimeTesterBatchingOrdering(t *testing.T) {
	run := func(mode sim.BatchMode, bound time.Duration) *sim.Result {
		opts := basePTOptions()
		opts.Schedule = &workload.StepSchedule{WarmUpRate: 200, StepDelta: 100, IncrementSteps: 1, StepDuration: 30}
		opts.Mode = mode
		opts.ConstraintBound = bound
		s, err := newSim(t, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	instant := run(sim.BatchInstant, 0)
	fixed := run(sim.BatchFixedBuffer, 0)
	adaptive := run(sim.BatchAdaptive, 20*time.Millisecond)

	li := instant.Probes[PrimeProbe].Mean
	lf := fixed.Probes[PrimeProbe].Mean
	la := adaptive.Probes[PrimeProbe].Mean
	if !(li < la && la < lf) {
		t.Errorf("latency ordering violated: instant %.4f, adaptive %.4f, fixed %.4f", li, la, lf)
	}
	// At low rates the 16 KiB buffers take seconds to fill.
	if lf < 0.5 {
		t.Errorf("fixed-buffer latency %.3f s too low for 16 KiB fill at this rate", lf)
	}
}

func TestScalePrimeTesterOptions(t *testing.T) {
	opts := PrimeTesterOptions{
		Sources: 50, Sinks: 50, PrimeTesters: 200, MinPT: 1, MaxPT: 520,
		Schedule:    &workload.StepSchedule{WarmUpRate: 10000, StepDelta: 10000, IncrementSteps: 9, StepDuration: 60},
		WorkerNodes: 130,
	}
	scaled := ScalePrimeTesterOptions(opts, 10)
	if scaled.Sources != 5 || scaled.PrimeTesters != 20 || scaled.MaxPT != 52 {
		t.Errorf("scaled counts: %+v", scaled)
	}
	if scaled.Schedule.WarmUpRate != 1000 || scaled.Schedule.StepDelta != 1000 {
		t.Errorf("scaled rates: %+v", scaled.Schedule)
	}
	if scaled.MinPT != 1 {
		t.Errorf("min clamped to 1, got %d", scaled.MinPT)
	}
	// The original is untouched.
	if opts.Schedule.WarmUpRate != 10000 {
		t.Error("scaling mutated the original schedule")
	}
	// Factor 1 is the identity.
	same := ScalePrimeTesterOptions(opts, 1)
	if same.Sources != 50 {
		t.Error("factor 1 must not scale")
	}
}

// TestPrimeTesterZeroScalerConfig: the simulator runs a zero
// ScalerConfig as core.DefaultScalerConfig(), action for action.
func TestPrimeTesterZeroScalerConfig(t *testing.T) {
	run := func(sc core.ScalerConfig) *sim.Result {
		cfg, probes, err := BuildPrimeTester(ScalePrimeTesterOptions(PaperPrimeTester(64, 3, 15, 1).ElasticWithin(20*time.Millisecond), 12))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scaler = sc
		s, err := sim.New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero, def := run(core.ScalerConfig{}), run(core.DefaultScalerConfig())
	if !reflect.DeepEqual(zero, def) {
		t.Errorf("zero config: %d ups, %d downs, %.3f task-h; default: %d ups, %d downs, %.3f task-h",
			zero.ScaleUps, zero.ScaleDowns, zero.TaskHours, def.ScaleUps, def.ScaleDowns, def.TaskHours)
	}
}
