package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// TestObsEngineTracing: head-sampled spans must flow through the live
// engine, decomposing per-hop latency for every vertex and edge on the
// record path.
func TestObsEngineTracing(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	tr := obs.NewTracer(1) // trace everything: assertions stay exact

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 400, Length: 1.5},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{EmitTime: time.Now()})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 21, Tracer: tr}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 30*time.Second)

	if tr.Emissions() != uint64(emitted.Load()) {
		t.Errorf("tracer saw %d emissions, source emitted %d", tr.Emissions(), emitted.Load())
	}
	if tr.Spans() != int64(tr.Emissions()) {
		t.Errorf("every-1 sampling started %d spans for %d emissions", tr.Spans(), tr.Emissions())
	}
	finished, mean := tr.EndToEnd()
	if finished == 0 || finished > tr.Spans() {
		t.Errorf("finished spans: got %d of %d", finished, tr.Spans())
	}
	if mean <= 0 {
		t.Errorf("end-to-end mean %v, want > 0", mean)
	}
	for _, vertex := range []string{"work", "sink"} {
		if n, svc := tr.VertexAttribution(vertex); n == 0 || svc < 0 {
			t.Errorf("vertex %s: %d traced samples, service %v", vertex, n, svc)
		}
	}
	for _, edge := range []string{"src->work", "work->sink"} {
		n, batch, _, wait, channel := tr.EdgeAttribution(edge)
		if n == 0 {
			t.Errorf("edge %s: no traced hops", edge)
			continue
		}
		if batch < 0 || wait < 0 || channel < batch+wait-1e-9 {
			t.Errorf("edge %s: implausible decomposition batch=%v wait=%v channel=%v", edge, batch, wait, channel)
		}
	}
}

// TestObsEngineTimeBase: every telemetry point of a traced engine run —
// hop and end-to-end observations stamped on task goroutines as well as
// the master's interval scrapes — is on the execution's clock, seconds
// since it started, so no point lies beyond the run's elapsed time.
func TestObsEngineTimeBase(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var received atomic.Int64
	tel := obs.NewTelemetry(0)
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 400, Length: 0.5},
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	start := time.Now()
	exec, err := New(Config{
		Seed: 22, Tracer: obs.NewTracer(1), Telemetry: tel,
		MeasurementInterval: 50 * time.Millisecond, AdjustmentInterval: 100 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 30*time.Second)
	elapsed := time.Since(start).Seconds()

	hops := 0
	for _, series := range tel.Store().Query("", 0, 0) {
		if series.Name == "nephelix_hop_service_seconds" {
			hops += len(series.Points)
		}
		for _, p := range series.Points {
			if p.T < 0 || p.T > elapsed {
				t.Fatalf("%s %v: point at t = %v, outside the run's [0, %.3f] s", series.Name, series.Labels, p.T, elapsed)
			}
		}
	}
	if hops == 0 {
		t.Fatal("no hop observations: the run traced nothing")
	}
}

// TestObsEngineDecisionAudit: the engine's elastic scale-up must land on
// the flight recorder with the parallelism diff and the justification
// (bottleneck flag or fitted model inputs), alongside the task_start
// events of the spawned replicas.
func TestObsEngineDecisionAudit(t *testing.T) {
	g := buildChain(t, 1, 8, model.PatternRoundRobin)
	var received atomic.Int64
	probes := probe.NewProbeSet()
	rec := obs.NewRecorder(0)

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
				busySpin(3 * time.Millisecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{
			Name: "c", Sequence: seq, Bound: 50 * time.Millisecond, Window: 10 * time.Second,
		})

	exec, err := New(Config{
		Seed:                22,
		Elastic:             true,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  400 * time.Millisecond,
		Recorder:            rec,
	}).Submit(spec, probes)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 30*time.Second)

	ups, _ := exec.ScaleEvents()
	if ups == 0 {
		t.Skip("run produced no scale-ups; nothing to audit (timing-sensitive)")
	}
	decisions := rec.Decisions()
	if len(decisions) == 0 {
		t.Fatal("scale-ups happened but no decision events were recorded")
	}
	audited := 0
	for i, ev := range decisions {
		d := ev.Decision
		if d.New["work"] > d.Old["work"] {
			audited++
			justified := false
			for _, cd := range d.Constraints {
				if cd.Bottleneck || len(cd.Model) > 0 {
					justified = true
				}
			}
			if !justified {
				t.Errorf("decision %d scaled up without bottleneck flag or model inputs: %+v", i, d)
			}
			if len(d.Actions) == 0 {
				t.Errorf("decision %d changed parallelism but lists no actions", i)
			}
		}
	}
	if audited == 0 {
		t.Errorf("%d scale-ups performed but no decision event shows a work increase", ups)
	}

	byKind := eventsByKind(rec)
	// 3 initial tasks plus one start per added replica.
	if got := len(byKind[obs.KindTaskStart]); got < 3+int(ups) {
		t.Errorf("task_start events: got %d, want >= %d (3 initial + %d scale-up spawns)", got, 3+int(ups), ups)
	}
	if len(byKind[obs.KindDropCounters]) != 1 {
		t.Errorf("drop_counters events: got %d, want 1", len(byKind[obs.KindDropCounters]))
	}
}

// TestObsEngineTelemetry: the live engine must feed the telemetry plane
// every adjustment interval — QoS gauges, interval counters and Go
// runtime stats — and feed the e2e histogram from finished trace spans.
// The /timeseries handler must then serve the scraped store.
func TestObsEngineTelemetry(t *testing.T) {
	g := buildChain(t, 1, 4, model.PatternRoundRobin)
	var received atomic.Int64
	tel := obs.NewTelemetry(0)
	tr := obs.NewTracer(1)

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 2.5},
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{EmitTime: time.Now(), Sampled: ctx.Sample()})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{
		Seed:                23,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  400 * time.Millisecond,
		Telemetry:           tel,
		Tracer:              tr,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 30*time.Second)

	if received.Load() == 0 {
		t.Fatal("no records delivered")
	}
	snap := tel.Snapshot("", 0, 0)
	byName := make(map[string]int)
	for _, s := range snap.Series {
		byName[s.Name]++
	}
	// Telemetry scrapes even without an elastic scaler: the QoS plane and
	// interval counter must be populated after a multi-interval run.
	for _, want := range []string{
		"nephelix_adjust_intervals_total",
		"nephelix_vertex_parallelism",
		"nephelix_vertex_utilization",
		"nephelix_edge_queue_wait_seconds",
		"nephelix_go_heap_alloc_bytes",
		"nephelix_e2e_latency_seconds",
	} {
		if byName[want] == 0 {
			t.Errorf("series %s missing from engine telemetry", want)
		}
	}
	for _, s := range snap.Series {
		switch s.Name {
		case "nephelix_adjust_intervals_total":
			if s.Total < 2 {
				t.Errorf("adjust intervals counted %v, want >= 2", s.Total)
			}
		case "nephelix_e2e_latency_seconds":
			if s.Count == 0 || s.Sum <= 0 {
				t.Errorf("e2e histogram: count %d sum %v, want observations from finished spans", s.Count, s.Sum)
			}
		}
	}
}
