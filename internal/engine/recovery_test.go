package engine

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// eventsByKind buckets recorded flight-recorder events for assertions.
func eventsByKind(rec *obs.Recorder) map[string][]obs.Event {
	out := make(map[string][]obs.Event)
	for _, ev := range rec.Events() {
		out[ev.Kind] = append(out[ev.Kind], ev)
	}
	return out
}

// panicky forwards records downstream but panics on every Nth record
// across all task replicas of the vertex.
type panicky struct {
	n     *atomic.Int64
	every int64
}

func (p *panicky) Process(ctx *Context, rec Record) {
	if p.n.Add(1)%p.every == 0 {
		panic("injected UDF failure")
	}
	ctx.Emit(0, rec)
}

// TestEnginePanicRecovery is the headline robustness check: a UDF that
// panics every Nth record must not crash the process. The supervisor
// restarts the crashed tasks with backoff and the job still completes
// cleanly.
func TestEnginePanicRecovery(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received, seen atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 1.5},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return &panicky{n: &seen, every: 100} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	rec := obs.NewRecorder(0)
	exec, err := New(Config{
		Seed:     11,
		restart:  restartPolicy{maxRestarts: 50, backoff: 2 * time.Millisecond, backoffCap: 10 * time.Millisecond},
		Recorder: rec,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("job should survive UDF panics, got: %v", err)
	}
	if err := exec.Wait(ctx); err != nil {
		t.Errorf("second Wait after a clean finish = %v, want nil", err)
	}
	if exec.TaskFailures() == 0 {
		t.Error("expected at least one supervised task failure")
	}
	if exec.TaskRestarts() == 0 {
		t.Error("expected at least one supervised task restart")
	}
	if received.Load() == 0 {
		t.Error("no records delivered after recovery")
	}
	// Crashed tasks lose in-flight records, never duplicate them.
	if received.Load() > emitted.Load() {
		t.Errorf("received %d > emitted %d", received.Load(), emitted.Load())
	}

	// The flight recorder must tell the whole story: starts for the
	// initial tasks and every respawn, one panic per supervised failure,
	// one restart event per supervised restart, and the drop counters at
	// shutdown.
	byKind := eventsByKind(rec)
	// 1 src + 2 work + 1 sink initially, plus one start per restart.
	wantStarts := 4 + int(exec.TaskRestarts())
	if got := len(byKind[obs.KindTaskStart]); got != wantStarts {
		t.Errorf("task_start events: got %d, want %d (4 initial + %d restarts)",
			got, wantStarts, exec.TaskRestarts())
	}
	if got := len(byKind[obs.KindTaskPanic]); got != int(exec.TaskFailures()) {
		t.Errorf("task_panic events: got %d, want %d (TaskFailures)", got, exec.TaskFailures())
	}
	for _, ev := range byKind[obs.KindTaskPanic] {
		if ev.Lifecycle.Vertex != "work" || !strings.Contains(ev.Lifecycle.Reason, "injected UDF failure") {
			t.Errorf("panic event lacks vertex/reason: %+v", ev.Lifecycle)
		}
	}
	if got := len(byKind[obs.KindTaskRestart]); got != int(exec.TaskRestarts()) {
		t.Errorf("task_restart events: got %d, want %d (TaskRestarts)", got, exec.TaskRestarts())
	}
	for _, ev := range byKind[obs.KindTaskRestart] {
		if ev.Lifecycle.Attempts < 1 || ev.Lifecycle.BackoffSeconds <= 0 {
			t.Errorf("restart event lacks backoff data: %+v", ev.Lifecycle)
		}
	}
	if got := len(byKind[obs.KindVertexDegraded]); got != 0 {
		t.Errorf("clean recovery must not record degradation, got %d events", got)
	}
	drops := byKind[obs.KindDropCounters]
	if len(drops) != 1 {
		t.Fatalf("drop_counters events: got %d, want exactly 1 at shutdown", len(drops))
	}
	if exec.LostRecords() > 0 && drops[0].Lifecycle.LostRecords != exec.LostRecords() {
		t.Errorf("drop_counters LostRecords = %d, execution reports %d",
			drops[0].Lifecycle.LostRecords, exec.LostRecords())
	}
}

// TestEngineVertexDegradesCleanly: a vertex whose tasks keep crashing
// past the restart cap must fail the job with an error instead of
// deadlocking the pipeline.
func TestEngineVertexDegradesCleanly(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var emitted, received atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 10},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(*Context, Record) { panic("always down") })
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	rec := obs.NewRecorder(0)
	exec, err := New(Config{
		Seed:     12,
		restart:  restartPolicy{maxRestarts: 2, backoff: 2 * time.Millisecond, backoffCap: 5 * time.Millisecond},
		Recorder: rec,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	werr := exec.Wait(ctx)
	if werr == nil {
		t.Fatal("Wait returned nil for a degraded job")
	}
	if !strings.Contains(werr.Error(), "degraded") {
		t.Errorf("error should name the degraded vertex cap: %v", werr)
	}
	if again := exec.Wait(ctx); again == nil || again.Error() != werr.Error() {
		t.Errorf("second Wait = %v, want the first Wait error %v", again, werr)
	}
	// Initial crash + restart.maxRestarts failed restarts.
	if got := exec.TaskFailures(); got < 3 {
		t.Errorf("TaskFailures() = %d, want >= 3", got)
	}

	// The degradation must be on the audit trail with the vertex, the
	// exhausted restart budget and the final panic reason.
	byKind := eventsByKind(rec)
	degraded := byKind[obs.KindVertexDegraded]
	if len(degraded) == 0 {
		t.Fatal("no vertex_degraded event recorded")
	}
	lc := degraded[0].Lifecycle
	if lc.Vertex != "work" || lc.Attempts < 2 || !strings.Contains(lc.Reason, "always down") {
		t.Errorf("vertex_degraded payload incomplete: %+v", lc)
	}
	if len(byKind[obs.KindTaskRestart]) != 2 {
		t.Errorf("task_restart events: got %d, want 2 (restart.maxRestarts)", len(byKind[obs.KindTaskRestart]))
	}
	if len(byKind[obs.KindDropCounters]) != 1 {
		t.Errorf("drop_counters events at shutdown: got %d, want 1", len(byKind[obs.KindDropCounters]))
	}
}

// TestEngineStopIdempotent: Stop twice and Wait on an already-stopped
// execution must both be safe no-ops (regression for double-close).
func TestEngineStopIdempotent(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 200, Length: 30},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(emitted.Load())})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	exec, err := New(Config{Seed: 13}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	exec.Stop()
	exec.Stop() // second call must not panic on a closed channel
	waitDone(t, exec, 20*time.Second)

	if !exec.Done() {
		t.Error("Done() = false after Wait returned")
	}
	// Wait on the already-stopped execution returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Errorf("Wait on stopped execution = %v, want nil", err)
	}
	exec.Stop() // and stopping a finished execution is still a no-op
}
