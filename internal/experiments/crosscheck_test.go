package experiments

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// TestEngineSimCrossCheck validates DESIGN.md's central substitution
// claim: the live goroutine engine and the virtual-time simulator, fed
// the same workload under the same control plane, land in the same
// operating regime — constraint met most of the time, mean latency in
// the same band, comparable parallelism.
//
// The comparison is necessarily loose: the engine runs on wall-clock
// time on a shared machine, the simulator on virtual time with a
// synthetic cost model. The test asserts regime-level agreement, not
// point equality.
func TestEngineSimCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment; skipped in -short mode")
	}

	const (
		rate        = 300.0 // items/s
		serviceMean = 0.002 // 2 ms per item
		bound       = 40 * time.Millisecond
	)

	// --- simulator run ---
	simProbes := probe.NewProbeSet()
	simSink := simProbes.Probe("e2e")
	simSink.BoundSeconds = bound.Seconds()

	simGraph := crossGraph(t)
	simSeq, err := model.ParseSequence(simGraph, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{
		Graph: simGraph,
		Constraints: []*model.Constraint{{
			Name: "c", Sequence: simSeq, Bound: bound, Window: 10 * time.Second,
		}},
		Vertices: map[string]sim.VertexConfig{
			"src": {
				Source: &sim.SourceConfig{
					Schedule: &workload.ConstantSchedule{RatePerSecond: rate, Length: 60},
					EmitCost: 20e-6,
					Emit: func(ctx *sim.TaskContext, now float64) {
						ctx.Emit(0, &sim.Item{EmitTime: now, Size: 64, Sampled: ctx.Sample()})
					},
				},
				SampleProbability: 0.5,
			},
			"work": {NewBehavior: func(int) sim.Behavior { return crossServer{mean: serviceMean} }},
			"sink": {NewBehavior: func(int) sim.Behavior { return crossSink{probe: simSink} }},
		},
		// Engine shipping is in-process: use near-zero data-plane costs so
		// the layers model the same physics.
		Costs:        sim.CostModel{FlushCPU: 10e-6, ReceiveCPU: 5e-6, NetFixed: 50e-6, NetPerByte: 1e-9, TCPSetup: 100e-6},
		Elastic:      true,
		WorkerNodes:  8,
		SlotsPerNode: 4,
		Seed:         1,
	}
	simP := -1 // work's parallelism as the simulator's last decision set it
	simCfg.OnAdjust = func(iv sim.AdjustmentInfo) {
		if iv.Decision != nil {
			simP = iv.Decision.Desired["work"]
		}
	}
	simRun, err := sim.New(simCfg, simProbes)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := simRun.Run()
	if err != nil {
		t.Fatal(err)
	}
	simSummary := simRes.Probes["e2e"]

	// --- engine run (shorter wall-clock span, same rates) ---
	engProbes := probe.NewProbeSet()
	engSink := engProbes.Probe("e2e")
	engSink.BoundSeconds = bound.Seconds()

	engGraph := crossGraph(t)
	engSeq, err := model.ParseSequence(engGraph, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	rec := obs.NewRecorder(0)
	spec := engine.NewJobSpec(engGraph).
		SetSource("src", engine.SourceSpec{
			Schedule:          &workload.ConstantSchedule{RatePerSecond: rate, Length: 8},
			SampleProbability: 0.5,
			Emit: func(ctx *engine.Context) {
				ctx.Emit(0, engine.Record{EmitTime: time.Now(), Sampled: ctx.Sample()})
			},
		}).
		SetUDF("work", func(int) engine.UDF {
			return engine.UDFFunc(func(ctx *engine.Context, rec engine.Record) {
				spinFor(serviceMean)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) engine.UDF {
			return engine.UDFFunc(func(_ *engine.Context, rec engine.Record) {
				received.Add(1)
				if rec.Sampled {
					engSink.Record(time.Since(rec.EmitTime).Seconds())
				}
			})
		}).
		AddConstraint(&model.Constraint{Name: "c", Sequence: engSeq, Bound: bound, Window: 10 * time.Second})
	exec, err := engine.New(engine.Config{
		Seed:                1,
		Elastic:             true,
		MeasurementInterval: 200 * time.Millisecond,
		AdjustmentInterval:  time.Second,
		Recorder:            rec,
	}).Submit(spec, engProbes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Every task has exited once Wait returns, so work's parallelism is
	// read from the scaler's decisions, one per adjustment interval.
	var engP []int
	for _, ev := range rec.Decisions() {
		if p, ok := ev.Decision.New["work"]; ok {
			engP = append(engP, p)
		}
	}
	engFrac, engIntervals := engSink.Fulfillment()
	t.Logf("sim:    mean=%.1fms p95=%.1fms fulfillment=%.0f%% (%d intervals), last decided p=%d",
		simSummary.Mean*1000, simSummary.P95*1000, simSummary.Fulfillment*100,
		simSummary.Intervals, simP)
	t.Logf("engine: mean=%.1fms p95=%.1fms fulfillment=%.0f%% (%d intervals), p per decision=%v, received=%d",
		engSink.TotalMean()*1000, engSink.TotalP95()*1000, engFrac*100,
		engIntervals, engP, received.Load())
	// Regime agreement: both meet the constraint most of the time...
	if simSummary.Fulfillment < 0.8 {
		t.Errorf("sim fulfillment %.2f below regime band", simSummary.Fulfillment)
	}
	if engFrac < 0.7 { // wall-clock noise allowance on shared hardware
		t.Errorf("engine fulfillment %.2f below regime band", engFrac)
	}
	// ...and both land between the service-time floor and the bound.
	for name, mean := range map[string]float64{
		"sim": simSummary.Mean, "engine": engSink.TotalMean(),
	} {
		if mean < serviceMean || mean > 2*bound.Seconds() {
			t.Errorf("%s mean latency %.4f s outside [service, 2×bound]", name, mean)
		}
	}
	// ...with comparable parallelism: every engine decision within the
	// vertex's bounds, the last within one task of the simulator's last
	// decision (both settle at 1 on this load).
	work := engGraph.Vertex("work")
	for i, p := range engP {
		if p < work.MinParallelism || p > work.MaxParallelism {
			t.Errorf("engine decision %d set work to p=%d, outside [%d, %d]", i+1, p, work.MinParallelism, work.MaxParallelism)
		}
	}
	if len(engP) == 0 {
		t.Error("engine recorded no scaling decision")
	} else if d := engP[len(engP)-1] - simP; d < -1 || d > 1 {
		t.Errorf("engine's final p=%d more than one task from the simulator's %d", engP[len(engP)-1], simP)
	}
}

// crossGraph builds the shared topology.
func crossGraph(t *testing.T) *model.JobGraph {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "work", Parallelism: 2, MinParallelism: 1, MaxParallelism: 8},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
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
	return g
}

// crossServer is the simulator-side stand-in for the engine's spinning
// UDF.
type crossServer struct{ mean float64 }

func (s crossServer) ServiceTime(rng *rand.Rand, _ *sim.Item) float64 {
	return s.mean * (0.9 + 0.2*rng.Float64())
}

func (s crossServer) Process(ctx *sim.TaskContext, it *sim.Item) { ctx.Emit(0, it) }

// crossSink records end-to-end latency.
type crossSink struct{ probe *probe.Probe }

func (crossSink) ServiceTime(*rand.Rand, *sim.Item) float64 { return 1e-5 }

func (s crossSink) Process(ctx *sim.TaskContext, it *sim.Item) {
	if it.Sampled {
		s.probe.Record(ctx.Now() - it.EmitTime)
	}
}

// spinFor burns CPU for roughly d seconds.
func spinFor(d float64) {
	end := time.Now().Add(time.Duration(d * float64(time.Second)))
	for time.Now().Before(end) {
	}
}
