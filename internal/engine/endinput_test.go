package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/workload"
)

// endLag bounds how long after its last source task exits a job may take
// to end. A cascade of a few hops takes milliseconds; the measurement
// interval of these tests is 1 s, and ending on silence took three, so
// 1 s still tells the two apart with room for scheduler pauses under
// -race.
const endLag = time.Second

// watchSourceExit reports when the execution's last source task exited,
// polled every 100 µs.
func watchSourceExit(ex *execution) <-chan time.Time {
	at := make(chan time.Time, 1)
	go func() {
		for ex.sourcesLeft.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		at <- time.Now()
	}()
	return at
}

// checkNoGoroutineLeak fails t if more than a few goroutines outlive the
// executions run since before was read by 200 ms, polled every
// millisecond.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	// Allow the runtime a moment to unwind.
	deadline := time.Now().Add(200 * time.Millisecond)
	after := runtime.NumGoroutine()
	for after > before+5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+5 {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// windowMark tags a window record.
var windowMark = new(int)

// tallyWindow forwards every record and, on each timer tick, emits one
// window record carrying the number of records it saw since the last.
type tallyWindow struct{ count int }

func (w *tallyWindow) Process(ctx *Context, rec Record) {
	w.count++
	ctx.Emit(0, rec)
}

func (w *tallyWindow) TimerInterval() time.Duration { return 100 * time.Millisecond }

func (w *tallyWindow) OnTimer(ctx *Context) {
	if w.count > 0 {
		ctx.Emit(0, Record{Key: uint64(w.count), Value: windowMark})
		w.count = 0
	}
}

// TestEngineEndOfInputEndsWithData: a bounded job ends with its data, not
// three measurement intervals of silence later. The worker's last window
// is still open and its size-only gate holds a partial batch when the
// source exits; both arrive, through the worker's exit drain.
func TestEngineEndOfInputEndsWithData(t *testing.T) {
	const total = 64*5 + 13 // not a multiple of the batch size
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var emitted, records, windowed atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: 0.3},
			Emit: func(ctx *Context) {
				if n := emitted.Add(1); n <= total {
					ctx.Emit(0, Record{Key: uint64(n)})
				} else {
					emitted.Add(-1)
				}
			},
		}).
		SetUDF("work", func(int) UDF { return &tallyWindow{} }).
		SetUDF("sink", func(int) UDF {
			return UDFFunc(func(_ *Context, rec Record) {
				if rec.Value == windowMark {
					windowed.Add(int64(rec.Key))
				} else {
					records.Add(1)
				}
			})
		}).
		SetEdgeBatching("work", "sink", BatchingFixed)
	exec, err := New(Config{Seed: 41, MaxBatchRecords: 64, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	exited := watchSourceExit(exec.ex)
	waitDone(t, exec, 20*time.Second)
	if lag := time.Since(<-exited); lag > endLag {
		t.Errorf("Wait returned %v after the source task exited, want within %v", lag, endLag)
	}
	if emitted.Load() != total {
		t.Fatalf("source emitted %d records, want %d", emitted.Load(), total)
	}
	if records.Load() != total {
		t.Errorf("delivered %d of %d records", records.Load(), total)
	}
	if windowed.Load() != total {
		t.Errorf("windows counted %d of %d records: the last window was not closed and shipped", windowed.Load(), total)
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
}

// TestEngineEndOfInputWorkerPanic: a worker that panics after the sources
// ended is not restarted, the records queued for it count as lost, and
// the job still ends.
func TestEngineEndOfInputWorkerPanic(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	var panicked atomic.Bool
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 5000, Length: 0.1},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(int) UDF {
			// A slow worker: the source's last records wait in its ring.
			return UDFFunc(func(ctx *Context, rec Record) {
				if ctx.e.t.final.Load() && !panicked.Swap(true) {
					panic("worker fails after its sources ended")
				}
				busySpin(time.Millisecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingInstant)
	exec, err := New(Config{Seed: 42, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	exited := watchSourceExit(exec.ex)
	waitDone(t, exec, 20*time.Second)
	lag := time.Since(<-exited)
	if !panicked.Load() {
		t.Fatal("the worker drained its ring before the job turned ending; nothing was queued to lose (test is broken)")
	}
	if err := exec.Wait(context.Background()); err != nil {
		t.Errorf("Wait = %v, want nil: a crash while ending degrades nothing", err)
	}
	if f, r := exec.TaskFailures(), exec.TaskRestarts(); f != 1 || r != 0 {
		t.Errorf("TaskFailures = %d, TaskRestarts = %d, want 1 and 0 (no restart while ending)", f, r)
	}
	lost := exec.LostRecords()
	if lost == 0 {
		t.Error("LostRecords = 0: the records queued for the crashed worker were not counted")
	}
	if e, r, d := emitted.Load(), received.Load(), exec.DroppedNoConsumer(); e != r+lost+d {
		t.Errorf("emitted %d != delivered %d + lost %d + dropped %d", e, r, lost, d)
	}
	if lag > endLag {
		t.Errorf("Wait returned %v after the source task exited, want within %v", lag, endLag)
	}
}

// TestEngineEndOfInputDrainingTask: a scale-down task still draining a
// backlog when the job turns ending leaves once it has drained it, and
// does not hold up the end. work[1] takes 10 ms a record against 500
// records/s, so its ring holds about 20 records when it is scaled down
// at 50 ms: 200 ms of backlog, past the source's end at 100 ms.
func TestEngineEndOfInputDrainingTask(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 0.1},
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(index int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				if index == 1 {
					busySpin(10 * time.Millisecond)
				}
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingInstant)
	exec, err := New(Config{Seed: 43, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.ex
	ex.mu.Lock()
	victim := ex.vertices["work"].tasks[1]
	ex.mu.Unlock()
	// At the last source task's exit: when, and whether the scale-down
	// task was still there.
	type ending struct {
		at       time.Time
		draining bool
	}
	ended := make(chan ending, 1)
	go func() {
		for ex.sourcesLeft.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		ended <- ending{time.Now(), !offTasks(ex, victim)}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := ex.Scale("work", -1); err != nil {
		t.Fatal(err)
	}
	if !victim.draining.Load() || exec.Parallelism("work") != 1 {
		t.Fatalf("work[1] draining = %v, %d live tasks, want true and 1", victim.draining.Load(), exec.Parallelism("work"))
	}
	waitDone(t, exec, 20*time.Second)
	end := <-ended
	if !end.draining {
		t.Error("the scale-down task left before the job turned ending: nothing to test (test is broken)")
	}
	if lag := time.Since(end.at); lag > endLag {
		t.Errorf("Wait returned %v after the source task exited, want within %v", lag, endLag)
	}
	if _, downs := exec.ScaleEvents(); downs != 1 {
		t.Errorf("%d scale-downs, want 1", downs)
	}
	if received.Load() != emitted.Load() {
		t.Errorf("delivered %d of %d records", received.Load(), emitted.Load())
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
}

// TestEngineEndOfInputStop: Stop mid-run stops the sources, the end of
// input cascades and ends the job, and no goroutine outlives it.
func TestEngineEndOfInputStop(t *testing.T) {
	before := runtime.NumGoroutine()
	g := buildChain(t, 2, 2, model.PatternKeyBased)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 3600}, // effectively endless
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{Key: uint64(emitted.Add(1))})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })
	exec, err := New(Config{Seed: 44, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	stopped := time.Now()
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	if lag := time.Since(stopped); lag > endLag {
		t.Errorf("Wait returned %v after Stop, want within %v", lag, endLag)
	}
	if received.Load() == 0 || received.Load() != emitted.Load() {
		t.Errorf("delivered %d of %d records", received.Load(), emitted.Load())
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
	checkNoGoroutineLeak(t, before)
}
