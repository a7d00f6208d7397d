package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/workload"
)

// TestWheelFiresArmedEntry is the unit-level counterpart of the idle
// regression below: an armed entry must fire within a few resolutions,
// raise the emitter's flush request, wake it, and leave the wheel
// disarmed. Without this, a zero-fires assertion could pass vacuously.
func TestWheelFiresArmedEntry(t *testing.T) {
	w := newFlushWheel(time.Millisecond)
	go w.run()
	defer w.stop()

	// A lane parked on its own parker (as a source shard's is; a worker
	// lane's points into its task): the fire must leave a wake token.
	e := &emitter{pk: &parker{ch: make(chan struct{}, 1)}}
	e.pk.parked.Store(true)
	e.armedUntil.Store(time.Now().UnixNano())

	w.arm(e, time.Now().UnixNano())
	waitUntil(t, "armed entry to fire", 5*time.Second, func() bool {
		return w.fires.Load() == 1
	})
	if !e.flushReq.Load() {
		t.Error("fire did not raise the emitter's flushReq")
	}
	if e.armedUntil.Load() != 0 {
		t.Error("fire did not clear the emitter's armedUntil marker")
	}
	select {
	case <-e.pk.ch:
	default:
		t.Error("fire did not wake the parked emitter")
	}
	if got := w.armed.Load(); got != 0 {
		t.Errorf("armed = %d after fire, want 0", got)
	}
}

// TestWheelIdleTopologyNoFires (satellite): the wheel arms only on
// empty→non-empty buffer transitions, so a topology that moves no
// records must cost zero timer fires — the regression this guards is
// the channel-era engine, where every task ran a FlushTick ticker
// whether or not it had anything buffered. The source's schedule runs
// for 300 ms (hundreds of old-style ticks at the 1 ms default) while
// its Emit produces nothing; adaptive batching on both edges keeps the
// gates in the one mode whose finite deadlines would use the wheel.
func TestWheelIdleTopologyNoFires(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var received atomic.Int64

	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 0.3},
			Emit:     func(*Context) {}, // scheduled, but never emits
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) { ctx.Emit(0, rec) })
		}).
		SetUDF("sink", func(int) UDF {
			return UDFFunc(func(*Context, Record) { received.Add(1) })
		}).
		SetEdgeBatching("src", "work", BatchingAdaptive).
		SetEdgeBatching("work", "sink", BatchingAdaptive)
	spec.AddConstraint(&model.Constraint{
		Name: "idle", Sequence: seq,
		Bound: 20 * time.Millisecond, Window: 10 * time.Second,
	})

	exec, err := New(Config{
		Seed:                7,
		MeasurementInterval: 20 * time.Millisecond,
		AdjustmentInterval:  50 * time.Millisecond,
		DrainIdle:           50 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("idle job did not finish: %v", err)
	}

	if got := received.Load(); got != 0 {
		t.Fatalf("idle topology delivered %d records, want 0 (test is broken)", got)
	}
	if got := exec.ex.wheel.fires.Load(); got != 0 {
		t.Errorf("wheel fired %d times on an idle topology, want 0", got)
	}
	if got := exec.ex.wheel.armed.Load(); got != 0 {
		t.Errorf("wheel still has %d armed entries after an idle run, want 0", got)
	}
}
