package sim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/workload"
)

// keyTracker records which task index served each key.
type keyTracker struct {
	owners map[uint64]int
	bad    *int
	index  int
}

func (k *keyTracker) ServiceTime(*rand.Rand, *Item) float64 { return 1e-4 }

func (k *keyTracker) Process(ctx *TaskContext, it *Item) {
	if prev, ok := k.owners[it.Key]; ok && prev != ctx.t.id.Index {
		*k.bad++
	}
	k.owners[it.Key] = ctx.t.id.Index
	if len(ctx.t.gates) > 0 {
		ctx.Emit(0, it)
	}
}

// TestSimKeyBasedRouting: a key always lands on the same consumer task.
func TestSimKeyBasedRouting(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 400, Length: 30}, false, 4,
		nil)
	bad := 0
	shared := map[uint64]int{} // global key→owner across task instances
	cfg.Vertices["server"] = VertexConfig{NewBehavior: func(i int) Behavior {
		return &keyTracker{owners: shared, bad: &bad, index: i}
	}}
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	// Emit 32 distinct keys.
	n := uint64(0)
	cfg.Vertices["src"].Source.Emit = func(ctx *TaskContext, now float64) {
		n++
		ctx.Emit(0, &Item{EmitTime: now, Size: 64, Key: n % 32})
	}
	cfg.Graph.Edge(model.EdgeKey{Source: "src", Target: "server"}).Pattern = model.PatternKeyBased
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d key ownership violations", bad)
	}
	if len(shared) != 32 {
		t.Errorf("keys observed: %d, want 32", len(shared))
	}
}

// TestSimScaleDownNoLoss: forced scale-downs under live traffic deliver
// every item (drain semantics).
func TestSimScaleDownNoLoss(t *testing.T) {
	probes := probe.NewProbeSet()
	sched := &workload.StepSchedule{WarmUpRate: 100, StepDelta: 400, IncrementSteps: 1, StepDuration: 30}
	cfg := pipelineConfig(t, probes, sched, false, 4,
		func(int) Behavior { return &testServer{mean: 0.004, exponential: true} })
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchAdaptive}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c", Sequence: seq, Bound: 25 * time.Millisecond, Window: 10 * time.Second,
	}}
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
	if res.ScaleDowns == 0 {
		t.Skip("no scale-down occurred; nothing to verify") // schedule-dependent
	}
	if res.DroppedItems != 0 {
		t.Errorf("scale-down dropped %d items", res.DroppedItems)
	}
}

// TestSimPoolExhaustion: scale-ups clip at the worker pool and the run
// keeps going.
func TestSimPoolExhaustion(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 2000, Length: 60}, false, 2,
		func(int) Behavior { return &testServer{mean: 0.01} })
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchAdaptive}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c", Sequence: seq, Bound: 30 * time.Millisecond, Window: 10 * time.Second,
	}}
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	cfg.WorkerNodes = 2 // 2 × 4 slots; src+sink already take 2
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.poolExhaustedEvents == 0 {
		t.Error("expected pool-exhaustion events")
	}
	if s.parallelismMap()["server"] > 6 {
		t.Errorf("parallelism exceeded pool capacity: %d", s.parallelismMap()["server"])
	}
	if res.Emitted["src"] == 0 {
		t.Error("run made no progress")
	}
}

// TestSimOnAdjustHook: the hook observes summaries and decisions.
func TestSimOnAdjustHook(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 30}, false, 2,
		func(int) Behavior { return &testServer{mean: 0.002} })
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second,
	}}
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	calls, withSummary := 0, 0
	cfg.OnAdjust = func(info AdjustmentInfo) {
		calls++
		if info.Summary != nil {
			if _, ok := info.Summary.Vertex("server"); ok {
				withSummary++
			}
		}
		if info.Now <= 0 {
			t.Errorf("hook time not set: %v", info.Now)
		}
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 30 s at the default 5 s adjustment interval ≈ 6 calls.
	if calls < 4 {
		t.Errorf("OnAdjust calls: got %d, want ≥4", calls)
	}
	if withSummary == 0 {
		t.Error("hook never saw server measurements")
	}
}

// TestSimFixedBufferDrainsAtEnd: with fixed 16 KiB buffers a low-rate run
// still delivers (partially filled buffers are not stranded forever —
// latency is high but the throughput accounting matches).
func TestSimFixedBufferBacklog(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 500, Length: 120}, false, 1,
		func(int) Behavior { return &testServer{mean: 0.0001} })
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchFixedBuffer}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchFixedBuffer}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	emitted := res.Emitted["src"]
	var processedAtSink float64
	for _, r := range res.Rows {
		processedAtSink += r.Processed["sink"] * (r.Time - 0) // rough; use last cumulative instead
	}
	_ = processedAtSink
	// Each 16 KiB buffer holds 256 items at 64 B; at most two in-flight
	// buffers per edge can be outstanding at the end.
	if emitted < 500*115 {
		t.Errorf("emitted only %d items", emitted)
	}
	if res.DroppedItems != 0 {
		t.Errorf("dropped %d", res.DroppedItems)
	}
}

// TestSimDurationOverride: explicit Duration truncates the run.
func TestSimDurationOverride(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 100, Length: 1000}, false, 1,
		func(int) Behavior { return &testServer{mean: 0.001} })
	cfg.Duration = 20
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Emitted["src"]; got < 1800 || got > 2200 {
		t.Errorf("emissions in 20 s at 100/s: got %d", got)
	}
	if last := res.Rows[len(res.Rows)-1].Time; last > 20 {
		t.Errorf("rows past the duration: %v", last)
	}
}

// TestSimElasticSourceVertex: a sequence may begin with the source vertex
// itself; the scaler then also manages source parallelism (sources lack
// arrival measurements, so the model scales them to their minimum).
func TestSimElasticSourceVertex(t *testing.T) {
	probes := probe.NewProbeSet()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 4, MinParallelism: 1, MaxParallelism: 8},
		{Name: "server", Parallelism: 2, MinParallelism: 1, MaxParallelism: 16},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
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
	seq, err := model.ParseSequence(g, "src", "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g,
		Constraints: []*model.Constraint{{
			Name: "c", Sequence: seq, Bound: 30 * time.Millisecond, Window: 10 * time.Second,
		}},
		Vertices: map[string]VertexConfig{
			"src": {Source: &SourceConfig{
				Schedule: &workload.ConstantSchedule{RatePerSecond: 200, Length: 90},
				EmitCost: 1e-5,
				Emit: func(ctx *TaskContext, now float64) {
					ctx.Emit(0, &Item{EmitTime: now, Size: 64, Sampled: ctx.Sample()})
				},
			}},
			"server": {NewBehavior: func(int) Behavior { return &testServer{mean: 0.002} }},
			"sink":   {NewBehavior: func(int) Behavior { return &testServer{mean: 1e-5, probe: sink} }},
		},
		Costs:        lightCosts(),
		Elastic:      true,
		Scaler:       core.DefaultScalerConfig(),
		WorkerNodes:  16,
		SlotsPerNode: 4,
		Seed:         5,
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sources carry no queue-wait demand: the model shrinks them to the
	// minimum; total emission rate is preserved by the per-task split.
	if got := s.parallelismMap()["src"]; got != 1 {
		t.Errorf("source parallelism: got %d, want 1 (scaled to min)", got)
	}
	emitted := res.Emitted["src"]
	if emitted < 200*85 {
		t.Errorf("emission rate not preserved across source scale-down: %d items", emitted)
	}
	if res.DroppedItems != 0 {
		t.Errorf("dropped %d items", res.DroppedItems)
	}
}

// TestEmitRateIsTheScheduleRate: inside a SourceFunc, EmitRate is the
// schedule's rate at the emission's own time — the value the simulator
// paced the emission by, not a re-evaluation.
func TestEmitRateIsTheScheduleRate(t *testing.T) {
	probes := probe.NewProbeSet()
	sched := &workload.StepSchedule{WarmUpRate: 50, StepDelta: 75, IncrementSteps: 2, StepDuration: 5}
	cfg := pipelineConfig(t, probes, sched, true, 2, func(int) Behavior { return &testServer{mean: 0.001} })
	emissions := 0
	src := cfg.Vertices["src"]
	src.Source.Emit = func(ctx *TaskContext, now float64) {
		emissions++
		if got, want := ctx.EmitRate(), sched.Rate(now); got != want {
			t.Errorf("t=%v: EmitRate = %v, the schedule says %v", now, got, want)
		}
		ctx.Emit(0, &Item{EmitTime: now, Size: 64})
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if emissions < 1000 {
		t.Fatalf("only %d emissions", emissions)
	}
}

// TestSimFailsRunOnDecideError: the simulator's policy for a master step
// that fails is to fail the run. The constraint names a vertex the job
// graph does not have; reports injected for it make the summary cover the
// sequence, so the scaler's Decide returns an error at the first
// adjustment interval — after the observers saw that interval.
func TestSimFailsRunOnDecideError(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 30}, false, 2,
		func(int) Behavior { return &testServer{mean: 0.002} })
	other := model.NewJobGraph()
	for _, name := range []string{"src", "ghost", "sink"} {
		if err := other.AddVertex(model.JobVertex{Name: name, Parallelism: 1, MinParallelism: 1, MaxParallelism: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "ghost"}, {"ghost", "sink"}} {
		if err := other.AddEdge(e[0], e[1], model.PatternRoundRobin); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := model.ParseSequence(other, "src->ghost", "ghost", "ghost->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second}}
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	var seen []AdjustmentInfo
	cfg.OnAdjust = func(info AdjustmentInfo) { seen = append(seen, info) }
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	m := s.managers[0]
	m.ReportTask(qos.TaskReport{
		Task:         model.TaskID{Vertex: "ghost"},
		ServiceCount: 10, ServiceMean: 0.001, TaskLatencyCount: 10, TaskLatencyMean: 0.001,
		InterarrivalCount: 10, InterarrivalMean: 0.01, InterarrivalCV: 1,
	})
	for _, ek := range seq.Edges() {
		m.ReportChannel(qos.ChannelReport{
			Channel:      model.ChannelID{Edge: ek},
			LatencyCount: 10, LatencyMean: 0.002, BatchLatencyCount: 10, BatchLatencyMean: 0.001,
		})
	}
	_, err = s.Run()
	if err == nil || !strings.Contains(err.Error(), "scaler:") || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("Run error = %v, want the scaler's error about the ghost vertex", err)
	}
	if len(seen) != 1 || seen[0].Round != 1 || seen[0].Decision != nil || seen[0].Now != 5 { // the default adjustment interval
		t.Errorf("observed %+v, want exactly the failing first interval", seen)
	}
}
