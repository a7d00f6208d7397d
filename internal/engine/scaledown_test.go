package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/workload"
)

// TestEngineScaleDownIntegrity is the regression test for the
// draining-task double-count bug: consecutive scale-down decisions once
// counted draining tasks as current parallelism and could drain every
// live consumer, silently dropping records at the producer gates.
func TestEngineScaleDownIntegrity(t *testing.T) {
	g := buildChain(t, 4, 8, model.PatternRoundRobin)
	var emitted, workSeen, received atomic.Int64
	seq, _ := model.ParseSequence(g, "src->work", "work", "work->sink")
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
				workSeen.Add(1)
				busySpin(500 * time.Microsecond)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		AddConstraint(&model.Constraint{Name: "c", Sequence: seq, Bound: 100 * time.Millisecond, Window: 10 * time.Second})
	exec, err := New(Config{Seed: 12, Elastic: true,
		MeasurementInterval: 100 * time.Millisecond, AdjustmentInterval: 300 * time.Millisecond}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 40*time.Second)
	_, downs := exec.ScaleEvents()
	if downs == 0 {
		t.Skip("no scale-down this run; nothing to verify")
	}
	if workSeen.Load() != emitted.Load() || received.Load() != emitted.Load() {
		t.Errorf("record loss across scale-down: emitted=%d workSeen=%d received=%d",
			emitted.Load(), workSeen.Load(), received.Load())
	}
	if d := exec.DroppedNoConsumer(); d != 0 {
		t.Errorf("%d records dropped for lack of consumers", d)
	}
}

// offTasks reports whether tk has left its vertex's task list (taskDone).
func offTasks(ex *execution, tk *task) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, other := range ex.vertices[tk.id.Vertex].tasks {
		if other == tk {
			return false
		}
	}
	return true
}

// TestEngineScaleDownBroadcastNoSilentLoss: a producer that took a batch
// for a scale-down task before the removal, and pushes it only after the
// task would have gone quiet, still gets it processed. work[0] blocks
// on its first record, so the source spins on work[0]'s full ring while
// it holds work[1]'s copy of the next broadcast batch. work[1] is removed
// meanwhile and then sees no input for 350 ms, longer than the 300 ms of
// idle input a scale-down task once left after; once work[0] is
// released, the held batch lands in work[1]'s ring. Nothing may be left
// there when the job ends.
func TestEngineScaleDownBroadcastNoSilentLoss(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternBroadcast)
	var processed, received atomic.Int64
	var held atomic.Bool
	release := make(chan struct{})
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 3600}, // until Stop
			Emit:     func(ctx *Context) { ctx.Emit(0, Record{}) },
		}).
		SetUDF("work", func(index int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				if index == 0 && !held.Swap(true) {
					<-release
				}
				processed.Add(1)
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingInstant)
	exec, err := New(Config{Seed: 45, QueueCapacity: 2, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.ex
	ex.mu.Lock()
	w0, w1 := ex.vertices["work"].tasks[0], ex.vertices["work"].tasks[1]
	ex.mu.Unlock()
	// A stall on work[0]'s ring: the source parks there with work[1]'s
	// copy of the batch in hand.
	waitUntil(t, "the source to stall on work[0]'s full ring", 5*time.Second, func() bool {
		return w0.inputs()[0].ring.Stats().PushFails > 0
	})
	if err := ex.Scale("work", -1); err != nil {
		t.Fatal(err)
	}
	if !w1.draining.Load() {
		t.Fatal("work[1] is not the scale-down task (test is broken)")
	}
	time.Sleep(350 * time.Millisecond)
	close(release)
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	left := 0
	for _, ref := range w1.inputs() {
		for b, ok := ref.ring.Drain(); ok; b, ok = ref.ring.Drain() {
			left += len(b.items)
		}
	}
	if left != 0 {
		t.Errorf("%d records left in the rings of the scale-down task, neither processed nor counted lost", left)
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
	if received.Load() != processed.Load() {
		t.Errorf("sink received %d of the %d records work processed", received.Load(), processed.Load())
	}
}

// drainLag bounds how long a scale-down task may outlive Scale under
// steady input: its producers close their rings at their next pacing
// round or input batch, and it leaves once it has drained them, well
// under a millisecond on an idle host; the rest is room for scheduler
// pauses under -race.
const drainLag = 50 * time.Millisecond

// TestEngineScaleDownPromptDrain: under steady keyed and round-robin
// input, a scale-down task leaves with its data, within drainLag, and
// every record arrives by the end of the job, which Stop ends.
func TestEngineScaleDownPromptDrain(t *testing.T) {
	for name, pattern := range map[string]model.WiringPattern{
		"keyed":      model.PatternKeyBased,
		"roundrobin": model.PatternRoundRobin,
	} {
		t.Run(name, func(t *testing.T) {
			g := buildChain(t, 2, 2, pattern)
			var emitted, received atomic.Int64
			spec := NewJobSpec(g).
				SetSource("src", SourceSpec{
					Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: 3600}, // until Stop
					Emit: func(ctx *Context) {
						ctx.Emit(0, Record{Key: uint64(emitted.Add(1))})
					},
				}).
				SetUDF("work", func(int) UDF { return &forwarder{} }).
				SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })
			exec, err := New(Config{Seed: 46, MeasurementInterval: time.Second}).Submit(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			ex := exec.ex
			time.Sleep(20 * time.Millisecond)
			ex.mu.Lock()
			victim := ex.vertices["work"].tasks[1]
			ex.mu.Unlock()
			scaled := time.Now()
			if err := ex.Scale("work", -1); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "the scale-down task to leave", 5*time.Second, func() bool { return offTasks(ex, victim) })
			if lag := time.Since(scaled); lag > drainLag {
				t.Errorf("the scale-down task left %v after Scale, want within %v", lag, drainLag)
			}
			exec.Stop()
			waitDone(t, exec, 20*time.Second)
			if received.Load() != emitted.Load() {
				t.Errorf("delivered %d of %d records", received.Load(), emitted.Load())
			}
			if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
				t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
			}
		})
	}
}

// TestEngineScaleDownQuietProducer: a task added and removed while its
// only producer is idle leaves within 100 ms. The producer never observed
// the consumer set that held it, so it learns of the removal from its
// mailbox, not from a diff of two sets it saw.
func TestEngineScaleDownQuietProducer(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 3600}, // until Stop
			Emit:     func(*Context) {},                                             // scheduled, but never emits
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return UDFFunc(func(*Context, Record) {}) })
	exec, err := New(Config{Seed: 47, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.ex
	time.Sleep(20 * time.Millisecond)
	if err := ex.Scale("sink", 1); err != nil {
		t.Fatal(err)
	}
	ex.mu.Lock()
	added := ex.vertices["sink"].tasks[1]
	ex.mu.Unlock()
	scaled := time.Now()
	if err := ex.Scale("sink", -1); err != nil {
		t.Fatal(err)
	}
	if !added.draining.Load() {
		t.Fatal("the added sink task is not the scale-down task (test is broken)")
	}
	waitUntil(t, "the added sink task to leave", 5*time.Second, func() bool { return offTasks(ex, added) })
	if lag := time.Since(scaled); lag > 100*time.Millisecond {
		t.Errorf("the added sink task left %v after Scale, want within 100ms", lag)
	}
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
}

// hourWindow is a tallyWindow whose timer does not tick within a test, so
// its window closes only as its task leaves; seen counts the records the
// task took in.
type hourWindow struct {
	tallyWindow
	seen *atomic.Int64
}

func (w *hourWindow) Process(ctx *Context, rec Record) {
	w.seen.Add(1)
	w.tallyWindow.Process(ctx, rec)
}

func (*hourWindow) TimerInterval() time.Duration { return time.Hour }

// TestEngineScaleDownTimerWindow: a scale-down task closes its open
// window on the way out, as a task of an ending job does. The window
// outlasts the test, so a window record reaches the sink only through
// its task's exit: the scale-down task's while the job runs, the other
// task's when Stop ends it.
func TestEngineScaleDownTimerWindow(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, records, windowed atomic.Int64
	var seen [2]atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: 3600}, // until Stop
			Emit: func(ctx *Context) {
				emitted.Add(1)
				ctx.Emit(0, Record{})
			},
		}).
		SetUDF("work", func(index int) UDF { return &hourWindow{seen: &seen[index]} }).
		SetUDF("sink", func(int) UDF {
			return UDFFunc(func(_ *Context, rec Record) {
				if rec.Value == windowMark {
					windowed.Add(int64(rec.Key))
				} else {
					records.Add(1)
				}
			})
		})
	exec, err := New(Config{Seed: 48, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.ex
	ex.mu.Lock()
	victim := ex.vertices["work"].tasks[1]
	ex.mu.Unlock()
	waitUntil(t, "work[1] to take in records", 5*time.Second, func() bool { return seen[1].Load() > 0 })
	if err := ex.Scale("work", -1); err != nil {
		t.Fatal(err)
	}
	if !victim.draining.Load() {
		t.Fatal("work[1] is not the scale-down task (test is broken)")
	}
	waitUntil(t, "the scale-down task to leave", 5*time.Second, func() bool { return offTasks(ex, victim) })
	deadline := time.Now().Add(time.Second)
	for windowed.Load() != seen[1].Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w, s := windowed.Load(), seen[1].Load(); w != s {
		t.Errorf("the sink counted %d records in windows while the job ran, want the scale-down task's %d", w, s)
	}
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	if records.Load() != emitted.Load() {
		t.Errorf("delivered %d of %d records", records.Load(), emitted.Load())
	}
	if windowed.Load() != emitted.Load() {
		t.Errorf("windows counted %d of %d records", windowed.Load(), emitted.Load())
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
}

// TestEngineScaleDownChurnConservation: scale-up and scale-down cycles of
// a keyed vertex under steady input lose no record: every removed task
// drains and leaves, and no push finds a ring its producer closed
// (TestGateClosedRingNeverAddressed pins the order that ensures it).
func TestEngineScaleDownChurnConservation(t *testing.T) {
	g := buildChain(t, 1, 3, model.PatternKeyBased)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 20000, Length: 3600}, // until Stop
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{Key: uint64(emitted.Add(1))})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingInstant)
	exec, err := New(Config{Seed: 49, MeasurementInterval: time.Second}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.ex
	for i := 0; i < 20; i++ {
		if err := ex.Scale("work", 1+i%2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if err := ex.Scale("work", -(1 + i%2)); err != nil {
			t.Fatal(err)
		}
	}
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	if received.Load() != emitted.Load() {
		t.Errorf("delivered %d of %d records", received.Load(), emitted.Load())
	}
	if l, d := exec.LostRecords(), exec.DroppedNoConsumer(); l != 0 || d != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", l, d)
	}
}
