package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"nephelix/internal/model"
	"nephelix/internal/obs"
)

// TestIdleGapPredictor pins the spin-or-park decision on gap sequences
// alone: gaps well under spinWait keep a consumer spinning, gaps well
// over it park it, a single outlier — however long — does not flip it,
// and it returns to spinning once its input speeds up again.
func TestIdleGapPredictor(t *testing.T) {
	feed := func(g *idleGap, gap time.Duration, n int) {
		for range n {
			g.observe(gap)
		}
	}
	t.Run("zero-value task spins", func(t *testing.T) {
		var tk task
		if tk.idle.park() {
			t.Error("a task that has seen no gap parks without spinning")
		}
	})
	t.Run("5 µs gaps spin", func(t *testing.T) {
		var g idleGap
		feed(&g, 5*time.Microsecond, 1000)
		if g.park() {
			t.Errorf("parks after 1000 gaps of 5 µs (prediction %v)", g.ewma)
		}
	})
	t.Run("1 ms gaps park", func(t *testing.T) {
		var g idleGap
		feed(&g, time.Millisecond, 2)
		for i := range 100 {
			g.observe(time.Millisecond)
			if !g.park() {
				t.Fatalf("spins after %d gaps of 1 ms (prediction %v)", i+3, g.ewma)
			}
		}
	})
	for _, outlier := range []time.Duration{300 * time.Microsecond, 10 * time.Millisecond} {
		t.Run("one "+outlier.String()+" outlier among 10 µs gaps", func(t *testing.T) {
			var g idleGap
			feed(&g, 10*time.Microsecond, 100)
			g.observe(outlier)
			if g.park() {
				t.Errorf("one %v gap flipped the prediction to park (%v)", outlier, g.ewma)
			}
			feed(&g, 10*time.Microsecond, 10)
			if g.park() {
				t.Errorf("parks after the outlier passed (%v)", g.ewma)
			}
		})
	}
	t.Run("back to spinning when input speeds up", func(t *testing.T) {
		var g idleGap
		feed(&g, time.Millisecond, 100)
		feed(&g, 10*time.Microsecond, 20)
		if g.park() {
			t.Errorf("still parks after 20 gaps of 10 µs following 1 ms ones (%v)", g.ewma)
		}
	})
	t.Run("batch stamped before the episode counts as no gap", func(t *testing.T) {
		var g idleGap
		g.observe(-time.Second)
		if g.ewma != 0 {
			t.Errorf("prediction %v after a negative gap, want 0", g.ewma)
		}
	})
}

// TestTaskSizeClass pins task to the 256-byte allocation class, whose
// objects start on a cache line. In a class that is not a multiple of
// 64 B, consecutive tasks share a line between one's busyNs and parker
// counters and the next one's read-mostly head (measured on
// steady-adaptive, EXPERIMENTS.md). A field that moves the struct out of
// (240, 256] changes the class: measure steady-adaptive before adding one.
func TestTaskSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(task{}); n <= 240 || n > 256 {
		t.Errorf("unsafe.Sizeof(task{}) = %d, want in (240, 256]", n)
	}
}

// burstGapSchedule alternates 1 ms at 100k records/s (≈ 10 µs between
// emissions) with 24 ms at 1k records/s (≈ 1 ms), so every consumer's
// idle gaps straddle spinWait and its prediction crosses it both ways
// dozens of times a second.
type burstGapSchedule struct{ length float64 }

func (s burstGapSchedule) Rate(t float64) float64 {
	if t >= s.length {
		return 0
	}
	if math.Mod(t, 0.025) < 0.001 {
		return 100_000
	}
	return 1_000
}

func (s burstGapSchedule) Duration() float64 { return s.length }

// onceSink records how often each key arrived, and how many records
// arrived later than `late` after their emission.
type onceSink struct {
	late time.Duration
	mu   sync.Mutex
	seen map[uint64]int
	slow int
}

func (s *onceSink) Process(_ *Context, rec Record) {
	s.mu.Lock()
	s.seen[rec.Key]++
	if time.Since(rec.EmitTime) > s.late {
		s.slow++
	}
	s.mu.Unlock()
}

// TestEngineIdleGapNoLostWakeup drives consumers through idle episodes
// that alternately spin and park without spinning, over a keyed
// two-worker job with instant flushing. Every record must arrive exactly
// once, with no loss, drop or task failure, Wait must return within its
// bound, and the scraped park counters must show both consumer vertices
// parking. A consumer a push does not wake sleeps until the next wake or
// its park timeout (the 100 ms measurement interval): had the
// slow-phase records (a fifth or more) waited for it, far more than 5 %
// of records would arrive later than 25 ms.
func TestEngineIdleGapNoLostWakeup(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternKeyBased)
	var emitted atomic.Uint64
	sink := &onceSink{late: 25 * time.Millisecond, seen: make(map[uint64]int)}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: burstGapSchedule{length: 1},
			Emit: func(ctx *Context) {
				ctx.Emit(0, Record{Key: emitted.Add(1), EmitTime: time.Now()})
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return sink }).
		SetEdgeBatching("src", "work", BatchingInstant).
		SetEdgeBatching("work", "sink", BatchingInstant)
	tel := obs.NewTelemetry(0)
	exec, err := New(Config{
		Seed:                41,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  200 * time.Millisecond,
		Telemetry:           tel,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exec, 20*time.Second)

	n := emitted.Load()
	if n < 1000 {
		t.Fatalf("source emitted %d records; the schedule offers a few thousand", n)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if uint64(len(sink.seen)) != n {
		t.Errorf("%d distinct keys delivered of %d emitted", len(sink.seen), n)
	}
	if frac := float64(sink.slow) / float64(n); frac > 0.05 {
		t.Errorf("%d of %d records (%.1f %%) arrived later than %v: consumers were not woken", sink.slow, n, 100*frac, sink.late)
	}
	for k, c := range sink.seen {
		if c != 1 || k == 0 || k > n {
			t.Errorf("key %d delivered %d times", k, c)
			break
		}
	}
	if l, d, f := exec.LostRecords(), exec.DroppedNoConsumer(), exec.TaskFailures(); l != 0 || d != 0 || f != 0 {
		t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, TaskFailures = %d, want 0", l, d, f)
	}
	dp := tel.Dataplane()
	if dp == nil {
		t.Fatal("no data-plane snapshot scraped")
	}
	parks := map[string]int64{}
	for _, c := range dp.Consumers {
		parks[c.Vertex] = c.Parks
	}
	if len(parks) != 2 || parks["work"] == 0 || parks["sink"] == 0 {
		t.Errorf("consumer park totals %+v, want work and sink only, both parked", dp.Consumers)
	}
}

// TestEngineFlushWakeCounted: a flush pass the master requests of a
// parked worker is a wake like a producer's push, and the consumer
// vertex's scraped wake total counts it. A record the parked worker
// holds under a finite deadline ships on the worker's own timer, with
// no wake at all. Nothing else pokes "work": the source emits only when
// the test asks, and no constraint makes the master set deadlines.
func TestEngineFlushWakeCounted(t *testing.T) {
	tel := obs.NewTelemetry(0)
	c := newDeadlineChain(t, tel)
	defer waitDone(t, c.exec, 20*time.Second)
	defer c.exec.Stop()

	e := c.work.emitters[0]
	waitUntil(t, "a master flush wake of the parked worker in the scraped consumer wakes", 10*time.Second, func() bool {
		if c.work.pk.parked.Load() {
			e.requestFlush()
		}
		if dp := tel.Dataplane(); dp != nil {
			for _, c := range dp.Consumers {
				if c.Vertex == "work" && c.Wakes >= 1 {
					return true
				}
			}
		}
		return false
	})

	const dl = 20 * time.Millisecond
	c.setDeadline(dl)
	c.holdOne(t)
	held, wakes := time.Now(), c.work.pk.wakes.Load()
	waitUntil(t, "the held record to reach the sink", 10*time.Second, func() bool { return c.delivered.Load() != 0 })
	if got := c.work.pk.wakes.Load() - wakes; got != 0 {
		t.Errorf("the parked worker was woken %d times to ship its held record, want 0 (its own timer ships it)", got)
	}
	if took := time.Duration(c.delivered.Load() - held.UnixNano()); took > 250*time.Millisecond {
		t.Errorf("held record shipped %v after the worker parked; deadline %v, park timeout 500ms", took, dl)
	}
}
