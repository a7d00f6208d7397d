package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// testServer is a configurable server behavior: exponential or
// deterministic service, forwarding downstream or recording end-to-end
// latency at the sequence end.
type testServer struct {
	mean        float64
	exponential bool
	probe       *probe.Probe
}

func (b *testServer) ServiceTime(rng *rand.Rand, _ *Item) float64 {
	if b.exponential {
		return rng.ExpFloat64() * b.mean
	}
	return b.mean
}

func (b *testServer) Process(ctx *TaskContext, it *Item) {
	if len(ctx.t.gates) > 0 {
		ctx.Emit(0, it)
		return
	}
	if b.probe != nil && it.Sampled {
		b.probe.Record(ctx.Now() - it.EmitTime)
	}
}

// lightCosts removes data-plane overheads so queueing formulas apply
// exactly.
func lightCosts() CostModel {
	return CostModel{FlushCPU: 1e-9, ReceiveCPU: 1e-9, NetFixed: 1e-7, NetPerByte: 0, TCPSetup: 0}
}

// pipelineConfig builds src(1) -> server(p) -> sink(1) with the given
// service behavior and schedule.
func pipelineConfig(t testing.TB, probes *ProbeSet, sched workload.Schedule, poisson bool, serverP int, newServer func(int) Behavior) Config {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1},
		{Name: "server", Parallelism: serverP, MinParallelism: 1, MaxParallelism: max(64, serverP)},
		{Name: "sink", Parallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "server", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("server", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	sink := probes.Probe("e2e")
	return Config{
		Graph: g,
		Vertices: map[string]VertexConfig{
			"src": {
				Source: &SourceConfig{
					Schedule: sched,
					EmitCost: 1e-9,
					Poisson:  poisson,
					Emit: func(ctx *TaskContext, now float64) {
						ctx.Emit(0, &Item{EmitTime: now, Size: 64, Sampled: ctx.Sample()})
					},
				},
				SampleProbability: 1,
			},
			"server": {NewBehavior: newServer},
			"sink":   {NewBehavior: func(int) Behavior { return &testServer{mean: 1e-9, probe: sink} }},
		},
		Edges: map[model.EdgeKey]EdgeConfig{
			{Source: "src", Target: "server"}:  {Mode: BatchInstant},
			{Source: "server", Target: "sink"}: {Mode: BatchInstant},
		},
		Costs:        lightCosts(),
		WorkerNodes:  40,
		SlotsPerNode: 4,
		Seed:         1,
	}
}

// TestSimMM1 validates the simulator's queueing behavior against the
// M/M/1 closed form: sojourn time T = 1/(μ−λ).
func TestSimMM1(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 80, Length: 300}, true, 1,
		func(int) Behavior { return &testServer{mean: 0.010, exponential: true} })
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 0.8, W = ρ/(μ−λ) = 40 ms, T = W + S = 50 ms.
	got := res.Probes["e2e"].Mean
	if math.Abs(got-0.050) > 0.010 {
		t.Errorf("M/M/1 sojourn: got %.4f s, want 0.050 ± 0.010", got)
	}
	if res.DroppedItems != 0 {
		t.Errorf("dropped items: %d", res.DroppedItems)
	}
}

// TestSimMD1 validates against M/D/1: W = ρ/(2(μ−λ)) = 20 ms.
func TestSimMD1(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 80, Length: 300}, true, 1,
		func(int) Behavior { return &testServer{mean: 0.010} })
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Probes["e2e"].Mean
	if math.Abs(got-0.030) > 0.006 {
		t.Errorf("M/D/1 sojourn: got %.4f s, want 0.030 ± 0.006", got)
	}
}

// TestSimLowLoadLatency: at 1% utilization the end-to-end latency is
// essentially the service time plus network transit.
func TestSimLowLoadLatency(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 1, Length: 120}, false, 1,
		func(int) Behavior { return &testServer{mean: 0.010} })
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Probes["e2e"].Mean
	if got < 0.010 || got > 0.012 {
		t.Errorf("idle latency: got %.4f s, want ≈ 0.010", got)
	}
}

// TestSimBackpressure: offered load twice the capacity throttles the
// source to the service rate (attempted > effective).
func TestSimBackpressure(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 60}, false, 1,
		func(int) Behavior { return &testServer{mean: 0.010} })
	cfg.QueueCapacityItems = 50
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is 100 items/s; 60 s yields ≈ 6000 processed + queue.
	emitted := res.Emitted["src"]
	if emitted > 6600 || emitted < 5500 {
		t.Errorf("backpressured emissions: got %d, want ≈ 6000 (capacity-bound)", emitted)
	}
	// The time series must show effective < attempted in steady state.
	if len(res.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Effective["src"] >= last.Attempted["src"]*0.8 {
		t.Errorf("no throttling visible: eff=%.1f att=%.1f", last.Effective["src"], last.Attempted["src"])
	}
	if res.DroppedItems != 0 {
		t.Errorf("backpressure must not drop items, dropped %d", res.DroppedItems)
	}
}

// TestSimBatchingModes: fixed 16 KiB buffers deliver far higher latency
// than instant flushing at a low rate, while both deliver the items.
func TestSimBatchingModes(t *testing.T) {
	run := func(mode BatchMode) *Result {
		probes := probe.NewProbeSet()
		cfg := pipelineConfig(t, probes,
			&workload.ConstantSchedule{RatePerSecond: 100, Length: 120}, false, 1,
			func(int) Behavior { return &testServer{mean: 0.001} })
		cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: mode}
		cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: mode}
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	instant := run(BatchInstant)
	fixed := run(BatchFixedBuffer)
	li, lf := instant.Probes["e2e"].Mean, fixed.Probes["e2e"].Mean
	// 16 KiB / 64 B = 256 items per batch at 100 items/s ≈ 2.56 s fill
	// time; mean buffer wait ≈ 1.3 s per edge.
	if lf < li*50 {
		t.Errorf("fixed-buffer latency %.4f not ≫ instant latency %.6f", lf, li)
	}
	if lf < 1.0 || lf > 6.0 {
		t.Errorf("fixed-buffer latency %.3f s outside the expected 16KiB-fill range", lf)
	}
}

// TestSimAdaptiveBatchingMeetsConstraint: with a 20 ms constraint the QoS
// plane sets flush deadlines that keep mean latency within the bound at
// moderate load, while latency stays well above instant-flush levels
// (i.e. batching happens).
func TestSimAdaptiveBatchingMeetsConstraint(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 180}, false, 4,
		func(int) Behavior { return &testServer{mean: 0.010} }) // ρ = 0.5 per task
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchAdaptive}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c20", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second,
	}}
	probes.SetBound("e2e", 0.020)
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	e2e := res.Probes["e2e"]
	if e2e.Mean > 0.020 {
		t.Errorf("constraint violated: mean %.4f s > 0.020", e2e.Mean)
	}
	// Batching must add visible latency over the bare service time.
	if e2e.Mean < 0.011 {
		t.Errorf("no batching visible: mean %.4f s ≈ service time", e2e.Mean)
	}
	if e2e.Fulfillment < 0.8 {
		t.Errorf("fulfillment %.2f too low", e2e.Fulfillment)
	}
}

// TestSimElasticScalesUpAndDown drives a step load through an elastic
// vertex: parallelism must rise under load and fall back afterwards.
func TestSimElasticScalesUpAndDown(t *testing.T) {
	probes := probe.NewProbeSet()
	sched := &workload.StepSchedule{
		WarmUpRate:     40,
		StepDelta:      160,
		IncrementSteps: 2,
		StepDuration:   60,
	}
	cfg := pipelineConfig(t, probes, sched, false, 4,
		func(int) Behavior { return &testServer{mean: 0.010, exponential: true} })
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchAdaptive}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c30", Sequence: seq, Bound: 30 * time.Millisecond, Window: 10 * time.Second,
	}}
	probes.SetBound("e2e", 0.030)
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Peak rate 360/s at S = 10 ms needs ≥ 4 busy servers; the scaler
	// must grow beyond the warm-up level and shrink again afterwards.
	if res.PeakParallelism["server"] < 5 {
		t.Errorf("peak parallelism: got %d, want ≥ 5", res.PeakParallelism["server"])
	}
	if res.FinalParallelism["server"] >= res.PeakParallelism["server"] {
		t.Errorf("no scale-down: final %d, peak %d", res.FinalParallelism["server"], res.PeakParallelism["server"])
	}
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Errorf("scaling activity: ups=%d downs=%d", res.ScaleUps, res.ScaleDowns)
	}
	if res.DroppedItems != 0 {
		t.Errorf("scaling dropped %d items", res.DroppedItems)
	}
}

// TestSimDeterminism: identical seeds give identical traces.
func TestSimDeterminism(t *testing.T) {
	run := func(seed int64) *Result {
		probes := probe.NewProbeSet()
		cfg := pipelineConfig(t, probes,
			&workload.ConstantSchedule{RatePerSecond: 100, Length: 60}, true, 2,
			func(int) Behavior { return &testServer{mean: 0.01, exponential: true} })
		cfg.Seed = seed
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	if a.Emitted["src"] != b.Emitted["src"] || a.Probes["e2e"].Mean != b.Probes["e2e"].Mean {
		t.Error("same seed produced different results")
	}
	if a.Emitted["src"] == c.Emitted["src"] && a.Probes["e2e"].Mean == c.Probes["e2e"].Mean {
		t.Error("different seed produced identical results")
	}
}

// TestSimConfigValidation covers config errors.
func TestSimConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty config accepted")
	}
	g := model.NewJobGraph()
	if err := g.AddVertex(model.JobVertex{Name: "only", Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	// Vertex without VertexConfig.
	if _, err := New(Config{Graph: g}, nil); err == nil {
		t.Error("missing vertex config accepted")
	}
	// Vertex with both Source and Behavior.
	cfg := Config{Graph: g, Vertices: map[string]VertexConfig{
		"only": {
			Source:      &SourceConfig{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}},
			NewBehavior: func(int) Behavior { return &testServer{} },
		},
	}}
	if _, err := New(cfg, nil); err == nil {
		t.Error("vertex with source and behavior accepted")
	}
}

// TestSimTimerBehavior checks that window-style behaviors emit on their
// interval and read-write latency is recorded.
type windowCollector struct {
	count int
	probe *probe.Probe
}

func (w *windowCollector) ServiceTime(*rand.Rand, *Item) float64 { return 1e-6 }

func (w *windowCollector) Process(_ *TaskContext, it *Item) {
	w.count++
}

func (w *windowCollector) TimerInterval() float64 { return 0.2 }

func (w *windowCollector) OnTimer(ctx *TaskContext) {
	if w.count == 0 {
		return
	}
	out := Item{EmitTime: ctx.Now(), Size: 128}
	w.count = 0
	if len(ctx.t.gates) > 0 {
		ctx.Emit(0, &out)
	}
}

func TestSimTimerBehavior(t *testing.T) {
	probes := probe.NewProbeSet()
	sink := probes.Probe("windows")
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1},
		{Name: "win", Parallelism: 1, LatencyMode: model.LatencyReadWrite},
		{Name: "sink", Parallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "win", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("win", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	var receivedWindows int
	cfg := Config{
		Graph: g,
		Vertices: map[string]VertexConfig{
			"src": {Source: &SourceConfig{
				Schedule: &workload.ConstantSchedule{RatePerSecond: 100, Length: 30},
				EmitCost: 1e-9,
				Emit: func(ctx *TaskContext, now float64) {
					ctx.Emit(0, &Item{EmitTime: now, Size: 64})
				},
			}},
			"win": {NewBehavior: func(int) Behavior { return &windowCollector{} }},
			"sink": {NewBehavior: func(int) Behavior {
				return behaviorFunc(func(ctx *TaskContext, it *Item) {
					receivedWindows++
					sink.Record(ctx.Now() - it.EmitTime)
				})
			}},
		},
		Edges: map[model.EdgeKey]EdgeConfig{
			{Source: "src", Target: "win"}:  {Mode: BatchInstant},
			{Source: "win", Target: "sink"}: {Mode: BatchInstant},
		},
		Costs:        lightCosts(),
		WorkerNodes:  4,
		SlotsPerNode: 4,
		Seed:         3,
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 30 s of 0.2 s windows ≈ 150 emissions (minus ramp effects).
	if receivedWindows < 100 || receivedWindows > 160 {
		t.Errorf("window emissions: got %d, want ≈ 150", receivedWindows)
	}
}

// behaviorFunc adapts a function to the Behavior interface (fixed tiny
// service time).
type behaviorFunc func(ctx *TaskContext, it *Item)

func (behaviorFunc) ServiceTime(*rand.Rand, *Item) float64 { return 1e-6 }
func (f behaviorFunc) Process(ctx *TaskContext, it *Item)  { f(ctx, it) }

// TestBusySumDrainingOrder: draining tasks' busy seconds add up in id
// order, so the sum a time-series row's CPU utilization is taken from
// does not depend on map iteration order — 0.1 + 0.2 + 0.3 is
// 0.6000000000000001 in one order and 0.6 in another.
func TestBusySumDrainingOrder(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, false, 1,
		func(int) Behavior { return &testServer{mean: 0.001} })
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	v := s.vertices["server"]
	for i, busy := range []float64{0.1, 0.2, 0.3} {
		v.draining[&simTask{id: model.TaskID{Vertex: "server", Index: 10 + i}, busyAccum: busy}] = struct{}{}
	}
	var first float64
	for rep := range 64 {
		s.now++
		s.recordTick()
		if rep == 0 {
			first = s.lastBusySum
		} else if got := s.lastBusySum; math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("repetition %d sums busy seconds to %v, repetition 0 to %v", rep, got, first)
		}
	}
}
