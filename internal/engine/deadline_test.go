package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/ring"
	"nephelix/internal/workload"
)

// TestLaneFlushDeadline pins a lane as its own flush timer, with no
// sleep and no goroutine: under a finite deadline its park is capped at
// oldest + deadline − now, and a loop pass ships the buffer exactly once
// now has reached that moment. Instant and size-only gates never cap a
// park.
func TestLaneFlushDeadline(t *testing.T) {
	const dl = 20 * time.Millisecond
	const timeout = time.Hour
	oldest := time.Unix(1000, 0)
	lane := func(deadline time.Duration) (*emitter, *gate, *ring.SPSC[batch]) {
		tk, _ := newBareTask(nil)
		e := tk.lane
		g, _, _ := testGate(model.PatternRoundRobin, 256)
		g.setDeadline(deadline)
		r := ring.New[batch](4)
		g.Add(&channelRef{to: &task{}, ring: r})
		e.gates = []*gate{g}
		return e, g, r
	}

	t.Run("adaptive", func(t *testing.T) {
		e, g, r := lane(dl)
		e.ship(g.push(&Record{}, oldest))
		e.ship(g.push(&Record{}, oldest.Add(5*time.Millisecond)))
		if got := e.parkFor(timeout, oldest.Add(5*time.Millisecond)); got != dl-5*time.Millisecond {
			t.Errorf("park capped at %v, want %v (the oldest record's deadline)", got, dl-5*time.Millisecond)
		}
		if got := e.parkFor(timeout, oldest.Add(dl+time.Millisecond)); got > 0 {
			t.Errorf("a lane past its deadline parks for %v, want none", got)
		}

		// A master request before the deadline is a pass, not a deadline
		// flush: it ships nothing yet.
		e.requestFlush()
		e.serviceFlush(oldest.Add(dl - time.Nanosecond))
		if !r.Empty() || g.Buffered() != 2 || e.flushes.Load() != 0 || e.flushReq.Load() {
			t.Fatalf("pass before the deadline: shipped %v, buffered %d, deadline flushes %d, request pending %v",
				!r.Empty(), g.Buffered(), e.flushes.Load(), e.flushReq.Load())
		}
		e.serviceFlush(oldest.Add(dl))
		b, ok := r.Pop()
		if !ok || len(b.items) != 2 || !b.oldestBuf.Equal(oldest) {
			t.Fatalf("pass at the deadline shipped %v (%d records, oldest %v), want the 2-record batch", ok, len(b.items), b.oldestBuf)
		}
		if e.flushes.Load() != 1 || g.Buffered() != 0 {
			t.Errorf("deadline flushes %d, buffered %d after the pass, want 1 and 0", e.flushes.Load(), g.Buffered())
		}
		if got := e.parkFor(timeout, oldest.Add(dl)); got != timeout {
			t.Errorf("an empty lane's park capped at %v, want the full %v", got, timeout)
		}
	})

	for _, c := range []struct {
		name     string
		deadline time.Duration
	}{{"instant", 0}, {"fixed", noDeadline}} {
		t.Run(c.name, func(t *testing.T) {
			e, g, _ := lane(c.deadline)
			e.ship(g.push(&Record{}, oldest))
			if got := e.parkFor(timeout, oldest.Add(time.Second)); got != timeout {
				t.Errorf("park capped at %v, want the full %v", got, timeout)
			}
			e.serviceFlush(oldest.Add(time.Hour))
			if e.flushes.Load() != 0 {
				t.Errorf("%d deadline flushes, want 0", e.flushes.Load())
			}
		})
	}
}

// deadlineChain runs src→work→sink in which the source emits one record
// per emitOne request and work→sink batches adaptively. No constraint
// is declared, so the master never sets a deadline or pokes a lane on
// its own: the test sets deadlines through SetDeadlines, as the master
// would. The park timeout (the measurement interval) is 500 ms, so a
// record that ships well within it shipped on its deadline.
type deadlineChain struct {
	exec      *Execution
	work      *task
	emitOne   atomic.Bool
	processed atomic.Int64 // records work emitted into its gate
	delivered atomic.Int64 // unix nanos the sink saw its first record
}

func newDeadlineChain(t *testing.T, tel *obs.Telemetry) *deadlineChain {
	c := &deadlineChain{}
	spec := NewJobSpec(buildChain(t, 1, 1, model.PatternRoundRobin)).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 30},
			Emit: func(ctx *Context) {
				if c.emitOne.CompareAndSwap(true, false) {
					ctx.Emit(0, Record{Key: 1})
				}
			},
		}).
		SetUDF("work", func(int) UDF {
			return UDFFunc(func(ctx *Context, rec Record) {
				ctx.Emit(0, rec)
				c.processed.Add(1)
			})
		}).
		SetUDF("sink", func(int) UDF {
			return UDFFunc(func(*Context, Record) { c.delivered.CompareAndSwap(0, time.Now().UnixNano()) })
		}).
		SetEdgeBatching("src", "work", BatchingInstant).
		SetEdgeBatching("work", "sink", BatchingAdaptive)
	exec, err := New(Config{
		Seed:                5,
		MeasurementInterval: 500 * time.Millisecond,
		AdjustmentInterval:  50 * time.Millisecond,
		Telemetry:           tel,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.exec = exec
	exec.ex.mu.Lock()
	c.work = exec.ex.vertices["work"].tasks[0]
	exec.ex.mu.Unlock()
	return c
}

// setDeadline publishes d on work→sink the way the master does.
func (c *deadlineChain) setDeadline(d time.Duration) {
	c.exec.ex.SetDeadlines(map[model.EdgeKey]float64{{Source: "work", Target: "sink"}: d.Seconds()})
}

// holdOne has the source emit one record and waits until work buffered
// it and parked afterwards. Work clears parked before it processes, so
// a parked seen after the record is a park that holds it.
func (c *deadlineChain) holdOne(t *testing.T) {
	t.Helper()
	c.emitOne.Store(true)
	waitUntil(t, "work to park holding the record", 10*time.Second, func() bool {
		return c.processed.Load() == 1 && c.work.pk.parked.Load()
	})
}

// TestEngineDeadlineShrinkHonoured: a worker parked under a long
// deadline set its timer by it; the master shrinking the deadline pokes
// the worker, and the record ships by the new deadline, long before the
// old one or the park timeout.
func TestEngineDeadlineShrinkHonoured(t *testing.T) {
	c := newDeadlineChain(t, nil)
	defer waitDone(t, c.exec, 20*time.Second)
	defer c.exec.Stop()

	c.setDeadline(5 * time.Second)
	c.holdOne(t)
	shrunk := time.Now()
	c.setDeadline(20 * time.Millisecond)
	waitUntil(t, "the record to reach the sink", 10*time.Second, func() bool { return c.delivered.Load() != 0 })
	if took := time.Duration(c.delivered.Load() - shrunk.UnixNano()); took > 250*time.Millisecond {
		t.Errorf("record shipped %v after the deadline shrank to 20ms; the old deadline was 5s, the park timeout 500ms", took)
	}
}

// pauseAfterEmit paces 1000 records/s until the record was emitted, then
// nothing: a source lane in the pause parks 50 ms at a time.
type pauseAfterEmit struct{ emitted *atomic.Int64 }

func (s pauseAfterEmit) Rate(float64) float64 {
	if s.emitted.Load() != 0 {
		return 0
	}
	return 1000
}

func (s pauseAfterEmit) Duration() float64 { return 30 }

// TestSourceLaneFlushDeadline: a source lane is its own flush timer too.
// Its one record waits in the lane's src→work buffer under an 8 ms
// deadline while the schedule pauses, where the lane parks 50 ms at a
// time; the record ships by its deadline, not at the end of the park.
func TestSourceLaneFlushDeadline(t *testing.T) {
	var emitted, delivered atomic.Int64
	spec := NewJobSpec(buildChain(t, 1, 1, model.PatternRoundRobin)).
		SetSource("src", SourceSpec{
			Schedule: pauseAfterEmit{&emitted},
			Emit: func(ctx *Context) {
				if time.Since(ctx.e.t.ex.start) > 100*time.Millisecond && emitted.CompareAndSwap(0, time.Now().UnixNano()) {
					ctx.Emit(0, Record{})
				}
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF {
			return UDFFunc(func(*Context, Record) { delivered.CompareAndSwap(0, time.Now().UnixNano()) })
		}).
		SetEdgeBatching("src", "work", BatchingAdaptive).
		SetEdgeBatching("work", "sink", BatchingInstant)
	exec, err := New(Config{Seed: 3}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer waitDone(t, exec, 20*time.Second)
	defer exec.Stop()
	exec.ex.SetDeadlines(map[model.EdgeKey]float64{{Source: "src", Target: "work"}: 0.008})

	waitUntil(t, "the record to reach the sink", 10*time.Second, func() bool { return delivered.Load() != 0 })
	if took := time.Duration(delivered.Load() - emitted.Load()); took > 30*time.Millisecond {
		t.Errorf("record shipped %v after its emission; deadline 8ms, the paused lane's park 50ms", took)
	}
}

// TestIdleTopologyNoDeadlineFlushes (satellite): a topology that moves
// no records runs zero deadline flush passes, and its consumer lanes
// park for their full timeout — nothing is buffered, so nothing caps a
// park. The regression this guards is the channel-era engine, where
// every task ran a FlushTick ticker whether or not it had anything
// buffered. The source's schedule runs for 300 ms while its Emit
// produces nothing; adaptive batching on both edges under a constraint
// keeps the gates in the one mode with finite deadlines.
func TestIdleTopologyNoDeadlineFlushes(t *testing.T) {
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

	cfg := Config{
		Seed:                7,
		MeasurementInterval: 20 * time.Millisecond,
		AdjustmentInterval:  50 * time.Millisecond,
	}
	start := time.Now()
	exec, err := New(cfg).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec.ex.mu.Lock()
	consumers := append(append([]*task(nil), exec.ex.vertices["work"].tasks...), exec.ex.vertices["sink"].tasks...)
	exec.ex.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("idle job did not finish: %v", err)
	}
	elapsed := time.Since(start)

	if got := received.Load(); got != 0 {
		t.Fatalf("idle topology delivered %d records, want 0 (test is broken)", got)
	}
	exec.ex.mu.Lock()
	flushes := exec.ex.retiredFlushes
	exec.ex.mu.Unlock()
	if flushes != 0 {
		t.Errorf("%d deadline flush passes on an idle topology, want 0", flushes)
	}
	// Every park ends on a wake or on a timer that ran its full timeout,
	// the measurement interval.
	minTimeout := cfg.MeasurementInterval
	for _, tk := range consumers {
		parks, wakes := tk.pk.parks.Load(), tk.pk.wakes.Load()
		if limit := wakes + int64(elapsed/minTimeout) + 2; parks > limit {
			t.Errorf("%s parked %d times with %d wakes in %v; full-timeout parks allow at most %d", tk.id, parks, wakes, elapsed, limit)
		}
	}
}
