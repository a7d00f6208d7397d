package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// buildChain creates src -> work -> sink with the given parallelism and
// pattern on both edges.
func buildChain(t testing.TB, workP, maxP int, pattern model.WiringPattern) *model.JobGraph {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "work", Parallelism: workP, MinParallelism: 1, MaxParallelism: maxP},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "work", pattern); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	return g
}

// countingSink counts records and checks sampled latency wiring.
type countingSink struct {
	count *atomic.Int64
	probe *probe.Probe
}

func (s *countingSink) Process(_ *Context, rec Record) {
	s.count.Add(1)
	if s.probe != nil && rec.Sampled {
		s.probe.Record(time.Since(rec.EmitTime).Seconds())
	}
}

// forwarder forwards records downstream, optionally tagging each with the
// handling task index.
type forwarder struct {
	tag     bool
	handled *sync.Map // key -> task index (for partition checks)
	index   int
}

func (f *forwarder) Process(ctx *Context, rec Record) {
	if f.handled != nil {
		if prev, loaded := f.handled.LoadOrStore(rec.Key, ctx.e.t.id.Index); loaded && prev.(int) != ctx.e.t.id.Index {
			f.handled.Store(rec.Key, -1) // same key seen on two tasks
		}
	}
	ctx.Emit(0, rec)
}

func waitDone(t *testing.T, exec *Execution, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("execution did not finish: %v", err)
	}
}

func TestEngineEndToEndDelivery(t *testing.T) {
	g := buildChain(t, 3, 3, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	probes := probe.NewProbeSet()
	pr := probes.Probe("e2e")

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 500, Length: 1.5},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(emitted.Load()), EmitTime: time.Now(), Sampled: ctx.Sample()})
			},
			SampleProbability: 1,
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received, probe: pr} })

	exec, err := New(Config{Seed: 1}).Submit(spec, probes)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)

	if received.Load() != emitted.Load() {
		t.Errorf("delivery: emitted %d, received %d", emitted.Load(), received.Load())
	}
	if emitted.Load() < 400 {
		t.Errorf("source underran: %d emissions", emitted.Load())
	}
	if pr.TotalCount() == 0 {
		t.Error("no latency samples recorded")
	}
	if mean := pr.TotalMean(); mean <= 0 || mean > 1 {
		t.Errorf("implausible mean latency %v s", mean)
	}
}

func TestEngineKeyPartitioning(t *testing.T) {
	g := buildChain(t, 4, 4, model.PatternKeyBased)
	var emitted, received atomic.Int64
	handled := &sync.Map{}

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 800, Length: 1},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n % 16)}) // 16 distinct keys
			},
		}).
		SetUDF("work", func(i int) UDF { return &forwarder{handled: handled, index: i} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 2}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)

	if received.Load() != emitted.Load() {
		t.Errorf("delivery: emitted %d, received %d", emitted.Load(), received.Load())
	}
	distinct := map[int]bool{}
	handled.Range(func(key, owner any) bool {
		if owner.(int) == -1 {
			t.Errorf("key %v processed by more than one task", key)
		}
		distinct[owner.(int)] = true
		return true
	})
	if len(distinct) < 2 {
		t.Errorf("keys not spread over tasks: %d owners", len(distinct))
	}
}

func TestEngineBroadcast(t *testing.T) {
	g := buildChain(t, 3, 3, model.PatternBroadcast)
	var emitted, workSeen, received atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 1},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				workSeen.Add(1)
				if ctx.e.t.id.Index == 0 {
					ctx.Emit(0, rec) // only one replica forwards
				}
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 3}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)

	if workSeen.Load() != 3*emitted.Load() {
		t.Errorf("broadcast fan-out: %d records seen by workers, want %d", workSeen.Load(), 3*emitted.Load())
	}
	if received.Load() != emitted.Load() {
		t.Errorf("sink received %d, want %d", received.Load(), emitted.Load())
	}
}

func TestEngineBackpressure(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var emitted, received atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			// Offered 2000/s against a consumer that can do ~500/s.
			Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: 1.0},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				time.Sleep(2 * time.Millisecond) // service ≈ 2 ms
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 4, QueueCapacity: 4, MaxBatchRecords: 8}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 30*time.Second)

	// Backpressure must throttle the source well below the offered count
	// and nothing may be lost.
	if emitted.Load() > 1500 {
		t.Errorf("no backpressure: %d emissions of 2000 offered", emitted.Load())
	}
	if received.Load() != emitted.Load() {
		t.Errorf("loss under backpressure: emitted %d received %d", emitted.Load(), received.Load())
	}
}

func TestEngineElasticScalesUp(t *testing.T) {
	g := buildChain(t, 1, 8, model.PatternRoundRobin)
	var received atomic.Int64
	probes := probe.NewProbeSet()

	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 600, Length: 6},
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{EmitTime: time.Now(), Sampled: ctx.Sample()})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				// Service ≈ 3 ms: one task saturates at ~330/s; the offered
				// 600/s needs at least 2–3 tasks.
				busySpin(3 * time.Millisecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{
			Name: "c", Sequence: seq, Bound: 50 * time.Millisecond, Window: 10 * time.Second,
		})

	exec, err := New(Config{
		Seed:                5,
		Elastic:             true,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  400 * time.Millisecond,
	}).Submit(spec, probes)
	if err != nil {
		t.Fatal(err)
	}

	peak := 1
	deadline := time.Now().Add(30 * time.Second)
	for !exec.Done() && time.Now().Before(deadline) {
		if p := exec.Parallelism("work"); p > peak {
			peak = p
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitDone(t, exec, 30*time.Second)

	if peak < 2 {
		t.Errorf("overloaded vertex never scaled up (peak %d)", peak)
	}
	ups, _ := exec.ScaleEvents()
	if ups == 0 {
		t.Error("no scale-up events recorded")
	}
	if received.Load() == 0 {
		t.Error("nothing delivered")
	}
}

// TestEngineRampIntoSaturationScalesUp steps the offered rate from well
// under one task's capacity to ~1.5x over it mid-run. Unlike
// TestEngineElasticScalesUp (saturated from the first interval), the
// bottleneck here must be detected from reports produced *while* the
// worker is saturated: a worker whose scan loop drains rings unboundedly
// (or grinds a backlog batch without flushing interval reports) goes
// stale in the master's freshness gating, coverage collapses, and the
// scaler skips the constraint exactly when ResolveBottlenecks should
// fire — the regression this test pins down.
func TestEngineRampIntoSaturationScalesUp(t *testing.T) {
	g := buildChain(t, 1, 8, model.PatternRoundRobin)
	var received atomic.Int64
	probes := probe.NewProbeSet()

	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			// 2 s at 100/s (ρ ≈ 0.3), then 4 s at 500/s (ρ ≈ 1.5), back
			// to 100/s.
			Schedule: &workload.StepSchedule{
				WarmUpRate: 100, StepDelta: 400, IncrementSteps: 1, StepDuration: 2,
			},
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{EmitTime: time.Now(), Sampled: ctx.Sample()})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				busySpin(3 * time.Millisecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{
			Name: "c", Sequence: seq, Bound: 50 * time.Millisecond, Window: 10 * time.Second,
		})

	exec, err := New(Config{
		Seed:                11,
		Elastic:             true,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  400 * time.Millisecond,
	}).Submit(spec, probes)
	if err != nil {
		t.Fatal(err)
	}

	peak := 1
	deadline := time.Now().Add(40 * time.Second)
	for !exec.Done() && time.Now().Before(deadline) {
		if p := exec.Parallelism("work"); p > peak {
			peak = p
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitDone(t, exec, 30*time.Second)

	if peak < 2 {
		t.Errorf("vertex saturated mid-run never scaled up (peak %d)", peak)
	}
	ups, _ := exec.ScaleEvents()
	if ups == 0 {
		t.Error("no scale-up events recorded")
	}
	if received.Load() == 0 {
		t.Error("nothing delivered")
	}
}

// busySpin burns CPU for roughly d (sleep-based services give the sampled
// service times the engine's QoS plane expects to see as busy time).
func busySpin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

func TestEngineStop(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 100, Length: 3600}, // effectively endless
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 6}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	if received.Load() == 0 {
		t.Error("nothing processed before stop")
	}
}

func TestEngineTimerUDF(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	g.Vertex("work").LatencyMode = model.LatencyReadWrite
	var windows, received atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 200, Length: 1.2},
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF { return &windowUDF{windows: &windows} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 7}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)
	// 1.2 s of 100 ms windows ≈ 12 emissions (minus drain raggedness).
	if w := windows.Load(); w < 6 || w > 20 {
		t.Errorf("window emissions: got %d, want ≈12", w)
	}
	if received.Load() != windows.Load() {
		t.Errorf("sink received %d, want %d window records", received.Load(), windows.Load())
	}
}

// windowUDF counts records and emits one summary record per 100 ms.
type windowUDF struct {
	count   int
	windows *atomic.Int64
}

func (w *windowUDF) Process(_ *Context, _ Record) { w.count++ }

func (w *windowUDF) TimerInterval() time.Duration { return 100 * time.Millisecond }

func (w *windowUDF) OnTimer(ctx *Context) {
	if w.count == 0 {
		return
	}
	w.windows.Add(1)
	ctx.Emit(0, Record{Key: uint64(w.count)})
	w.count = 0
}

func TestEngineSpecValidation(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	eng := New(Config{})

	// Missing UDFs.
	if _, err := eng.Submit(NewJobSpec(g), nil); err == nil {
		t.Error("spec without UDFs accepted")
	}
	// Source on a vertex with inputs.
	bad := NewJobSpec(g).
		SetSource("src", SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}).
		SetSource("work", SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}).
		SetUDF("sink", func(int) UDF { return &forwarder{} })
	if _, err := eng.Submit(bad, nil); err == nil {
		t.Error("source with inbound edges accepted")
	}
	// Elastic without constraints.
	ok := NewJobSpec(g).
		SetSource("src", SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &atomic.Int64{}} })
	if _, err := New(Config{Elastic: true}).Submit(ok, nil); err == nil {
		t.Error("elastic execution without constraints accepted")
	}
}

func TestEngineNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		g := buildChain(t, 2, 2, model.PatternRoundRobin)
		var received atomic.Int64
		spec := NewJobSpec(g).
			SetSource("src", SourceSpec{
				Schedule: &workload.ConstantSchedule{RatePerSecond: 200, Length: 0.5},
				Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
			}).
			SetUDF("work", func(int) UDF { return &forwarder{} }).
			SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })
		exec, err := New(Config{Seed: int64(i)}).Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, exec, 20*time.Second)
	}
	checkNoGoroutineLeak(t, before)
}

// multiEmitter sends each record on both outgoing edges (like the
// paper's TweetSource).
func TestEngineMultiOutEdges(t *testing.T) {
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "a", Parallelism: 2, MinParallelism: 2, MaxParallelism: 2},
		{Name: "b", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "a"}, {"src", "b"}, {"a", "sink"}, {"b", "sink"}} {
		if err := g.AddEdge(e[0], e[1], model.PatternRoundRobin); err != nil {
			t.Fatal(err)
		}
	}
	var emitted, viaA, viaB, sunk atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 400, Length: 1},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{}) // edge src->a
				ctx.Emit(1, Record{}) // edge src->b
			},
		}).
		SetUDF("a", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) { viaA.Add(1); ctx.Emit(0, rec) })
		}).
		SetUDF("b", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) { viaB.Add(1); ctx.Emit(0, rec) })
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &sunk} })
	exec, err := New(Config{Seed: 11}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)
	if viaA.Load() != emitted.Load() || viaB.Load() != emitted.Load() {
		t.Errorf("fan-out: emitted %d, viaA %d, viaB %d", emitted.Load(), viaA.Load(), viaB.Load())
	}
	if sunk.Load() != 2*emitted.Load() {
		t.Errorf("sink: got %d, want %d", sunk.Load(), 2*emitted.Load())
	}
}

// TestEngineElasticScalesDown: after a load drop the scaler removes tasks
// without losing records.
func TestEngineElasticScalesDown(t *testing.T) {
	g := buildChain(t, 4, 8, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	// Load falls off a cliff after 1.5 s, then trickles for 4.5 s giving
	// the scaler time to shrink the over-provisioned vertex.
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.StepSchedule{WarmUpRate: 400, StepDelta: 1, IncrementSteps: 1, StepDuration: 2},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				busySpin(500 * time.Microsecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{
			Name: "c", Sequence: seq, Bound: 100 * time.Millisecond, Window: 10 * time.Second,
		})
	exec, err := New(Config{
		Seed:                12,
		Elastic:             true,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  300 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	minP := 4
	deadline := time.Now().Add(30 * time.Second)
	for !exec.Done() && time.Now().Before(deadline) {
		if p := exec.Parallelism("work"); p > 0 && p < minP {
			minP = p
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitDone(t, exec, 20*time.Second)
	if minP >= 4 {
		t.Errorf("over-provisioned vertex never scaled down (min %d)", minP)
	}
	if received.Load() != emitted.Load() {
		t.Errorf("loss across scale-down: emitted %d received %d", emitted.Load(), received.Load())
	}
}

// TestEngineFixedBatching: a fixed-batch edge delivers in full batches
// with much higher latency than instant flushing.
func TestEngineFixedBatching(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	probes := probe.NewProbeSet()
	pr := probes.Probe("e2e")
	var received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule:          &workload.ConstantSchedule{RatePerSecond: 100, Length: 2},
			SampleProbability: 1,
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{EmitTime: time.Now(), Sampled: true})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received, probe: pr} }).
		SetEdgeBatching("src", "work", BatchingFixed).
		SetEdgeBatching("work", "sink", BatchingFixed)
	exec, err := New(Config{Seed: 13, MaxBatchRecords: 64}).Submit(spec, probes)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)
	// 64-record batches at 100/s fill in 640 ms; mean wait far above the
	// sub-ms instant-flush latency.
	if mean := pr.TotalMean(); mean < 0.050 {
		t.Errorf("fixed batching mean latency %.4f s implausibly low", mean)
	}
	if received.Load() == 0 {
		t.Error("nothing delivered")
	}
}

// TestEngineFixedBatchingDeliversTail: size-only gates ship full batches
// only, so the last records of a job — fewer than a batch per consumer —
// used to sit in the workers' gates until the force-quit and vanish with
// no counter moved. A worker now ships them on its way out, once its
// input has ended.
func TestEngineFixedBatchingDeliversTail(t *testing.T) {
	const total = 64*9 + 37 // not a multiple of the batch size
	g := buildChain(t, 2, 2, model.PatternKeyBased)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 5000, Length: 0.5},
			Emit: func(ctx *Context) {
				if n := emitted.Add(1); n <= total {
					ctx.Emit(0, Record{Key: uint64(n)})
				} else {
					emitted.Add(-1)
				}
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingFixed).
		SetEdgeBatching("work", "sink", BatchingFixed)
	exec, err := New(Config{Seed: 15, MaxBatchRecords: 64, MeasurementInterval: 50 * time.Millisecond}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)
	if emitted.Load() != total {
		t.Fatalf("source emitted %d records, want %d", emitted.Load(), total)
	}
	if received.Load() != total {
		t.Errorf("delivered %d of %d records: the tail of a fixed-batching job was lost", received.Load(), total)
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
}

func TestEnginePoolTooSmall(t *testing.T) {
	g := buildChain(t, 4, 4, model.PatternRoundRobin)
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1},
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &atomic.Int64{}} })
	// 6 tasks needed, 1 worker × 4 slots available.
	if _, err := New(Config{Workers: 1, SlotsPerWorker: 4}).Submit(spec, nil); err == nil {
		t.Error("submit succeeded despite exhausted slot pool")
	}
}

func TestEngineStopIsIdempotent(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 50, Length: 3600},
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })
	exec, err := New(Config{Seed: 21}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	exec.Stop()
	exec.Stop() // second call must be a no-op
	waitDone(t, exec, 20*time.Second)
	if !exec.Done() {
		t.Error("Done() false after Wait returned")
	}
}

func TestEngineSummaryPublished(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 2},
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				busySpin(time.Millisecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })
	exec, err := New(Config{
		Seed:                22,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  400 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)
	s := exec.ex.lastSummary.Load()
	if s == nil {
		t.Fatal("no summary published")
	}
	v, ok := s.Vertex("work")
	if !ok {
		t.Fatal("summary lacks the work vertex")
	}
	// The spin-based UDF's measured service time must be near 1 ms.
	if v.ServiceTimeMean < 0.0005 || v.ServiceTimeMean > 0.01 {
		t.Errorf("measured service time %.5f s, want ≈0.001", v.ServiceTimeMean)
	}
	if v.ArrivalRate() <= 0 {
		t.Error("no arrival rate measured")
	}
}

// TestEngineTailFitWithoutObservability: under a percentile constraint the
// scaler's tail fit is fed by the QoS plane alone. With no telemetry, no
// tracer and no recorder configured, κ at the constrained worker leaves
// the mean fallback within a few adjustment intervals.
func TestEngineTailFitWithoutObservability(t *testing.T) {
	g := buildChain(t, 2, 4, model.PatternRoundRobin)
	var received atomic.Int64
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 1.5},
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{EmitTime: time.Now()})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{
			Name: "c", Sequence: seq, Bound: 50 * time.Millisecond, Window: 10 * time.Second, Quantile: 0.99,
		})

	exec, err := New(Config{
		Seed:                9,
		Elastic:             true,
		MeasurementInterval: 50 * time.Millisecond,
		AdjustmentInterval:  200 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit := false
	for !fit && !exec.Done() {
		_, state := exec.ex.loop.TailFitter().Kappa("work", 0.99)
		fit = state == core.TailFitFresh
		time.Sleep(20 * time.Millisecond)
	}
	waitDone(t, exec, 30*time.Second)
	if !fit {
		t.Errorf("tail fit at \"work\" never left the mean fallback: %+v", exec.ex.loop.TailFitter().Snapshot())
	}
}
