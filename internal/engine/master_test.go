package engine

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/workload"
)

// TestAdjustTickAuditsDecideErrorOncePerMessage: the engine's policy for a
// master step that fails is to keep the job alive and audit the error on
// the flight recorder, once per distinct message. The constraint names a
// vertex the job graph does not have; reports fed for it make the summary
// cover the sequence, so Decide fails every interval. adjustTick runs on
// this goroutine against an execution with no tasks and no master loop.
func TestAdjustTickAuditsDecideErrorOncePerMessage(t *testing.T) {
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
	rec, tel := obs.NewRecorder(0), obs.NewTelemetry(0)
	ex := &execution{
		cfg: Config{Elastic: true, Recorder: rec, Telemetry: tel}.withDefaults(),
		spec: NewJobSpec(buildChain(t, 2, 8, model.PatternRoundRobin)).AddConstraint(
			&model.Constraint{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second}),
		probes:      probe.NewProbeSet(),
		start:       time.Now(),
		manager:     qos.NewManager(qos.DefaultManagerConfig()),
		deadlines:   make(map[model.EdgeKey]time.Duration),
		supervisors: make(map[string]*supervisor),
		stepErrs:    make(map[string]bool),
		stopCh:      make(chan struct{}),
	}
	if ex.loop, err = ex.newLoop(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		ex.manager.ReportTask(qos.TaskReport{
			Task:         model.TaskID{Vertex: "ghost"},
			ServiceCount: 10, ServiceMean: 0.001, TaskLatencyCount: 10, TaskLatencyMean: 0.001,
			InterarrivalCount: 10, InterarrivalMean: 0.01, InterarrivalCV: 1,
		})
		for _, ek := range seq.Edges() {
			ex.manager.ReportChannel(qos.ChannelReport{
				Channel:      model.ChannelID{Edge: ek},
				LatencyCount: 10, LatencyMean: 0.002, BatchLatencyCount: 10, BatchLatencyMean: 0.001,
			})
		}
		ex.adjustTick()
		// The telemetry counts one adjustment interval per master Step.
		if got := tel.Snapshot("nephelix_adjust_intervals_total", 0, 0).Series[0].Total; got != float64(round) {
			t.Fatalf("after %d ticks the loop is at round %v", round, got)
		}
	}
	var audited []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindScalerError {
			audited = append(audited, ev)
		}
	}
	if len(audited) != 1 || !strings.Contains(audited[0].Lifecycle.Reason, `"ghost" not in job graph`) {
		t.Fatalf("scaler_error events = %+v, want one naming the ghost vertex", audited)
	}
	select {
	case <-ex.stopCh:
		t.Error("a failed scaling step stopped the job")
	default:
	}
	if ex.failErr != nil {
		t.Errorf("a failed scaling step failed the job: %v", ex.failErr)
	}
	if s := tel.Snapshot("nephelix_vertex_service_mean_seconds", 0, 0).Series; len(s) == 0 {
		t.Error("the failing interval's summary was not published")
	}
}

// TestReadReadyTaskReportsUnchanged: a worker and two source tasks built
// by newTask no longer accumulate task latency themselves; their reports
// equal those of a reporter fed every sample twice, as the engine did.
func TestReadReadyTaskReportsUnchanged(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	spec := NewJobSpec(g)
	ex := &execution{cfg: Config{}.withDefaults(), spec: spec, modes: map[string]model.LatencyMode{}}
	src := &SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}
	worker := newTask(ex, model.TaskID{Vertex: "work"}, UDFFunc(func(*Context, Record) {}), nil, 1)
	source0 := newTask(ex, model.TaskID{Vertex: "src"}, nil, src, 2)
	source1 := newTask(ex, model.TaskID{Vertex: "src", Index: 1}, nil, src, 3)

	for _, tk := range []*task{worker, source0, source1} {
		rep := tk.lane.reporter
		twice := qos.NewTaskReporter(tk.id)
		for i, per := range []float64{3e-6, 7e-6, 1e-6, 2.5e-4} {
			n := 3*i + 1
			rep.RecordServiceN(per, n)
			twice.RecordServiceN(per, n)
			twice.RecordTaskLatencyN(per, n)
		}
		got, want := rep.Flush(), twice.Flush()
		if got.TaskLatencyCount == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: derived %+v\nrecorded twice %+v", tk.id, got, want)
		}
	}

	ex.modes["work"] = model.LatencyReadWrite
	rw := newTask(ex, model.TaskID{Vertex: "work", Index: 1}, UDFFunc(func(*Context, Record) {}), nil, 3)
	rw.lane.reporter.RecordServiceN(1e-6, 4)
	if rep := rw.lane.reporter.Flush(); rep.TaskLatencyCount != 0 {
		t.Errorf("a read-write task derived %d task latencies from its service times", rep.TaskLatencyCount)
	}
}
