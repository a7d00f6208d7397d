package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// seqVal is a backpressure test record's payload: its key's sequence
// number at the source and the worker task that forwarded it.
type seqVal struct{ seq, worker int }

// orderSink counts records and checks that each key's records arrive in
// source order along every worker path (a ring is FIFO, a task processes
// in order; a rescale or a restart re-homes a key onto another path).
type orderSink struct {
	mu   sync.Mutex
	last map[[2]int]int // (key, worker) → last sequence number
	got  int64
	bad  int
}

func (s *orderSink) Process(_ *Context, rec Record) {
	v := rec.Value.(seqVal)
	k := [2]int{int(rec.Key), v.worker}
	s.mu.Lock()
	if prev, ok := s.last[k]; ok && v.seq <= prev {
		s.bad++
	}
	s.last[k] = v.seq
	s.got++
	s.mu.Unlock()
}

// TestEngineBackpressureHandoff holds a consumer until its producer is
// parked on the full ring between them, then scales that consumer down or
// crashes it: the producer gets out either way, nothing hangs, no record
// is reordered per key and path, and every record is delivered or, under
// the crash, counted lost.
func TestEngineBackpressureHandoff(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "scale-down"
		if crash {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			const keys, hold = 16, 1 // work[1], the newest: Scale(-1) removes it
			var sent atomic.Int64
			var next [keys]int
			var held atomic.Bool
			release := make(chan struct{})
			sink := &orderSink{last: make(map[[2]int]int)}
			spec := NewJobSpec(buildChain(t, 2, 2, model.PatternKeyBased)).
				SetSource("src", SourceSpec{
					Schedule: &workload.ConstantSchedule{RatePerSecond: 20_000, Length: 3600}, // until Stop
					Emit: func(ctx *Context) {
						for i := 0; i < 8; i++ {
							k := int(sent.Add(1)) % keys
							next[k]++
							ctx.Emit(0, Record{Key: uint64(k), Value: seqVal{seq: next[k]}})
						}
					},
				}).
				SetUDF("work", func(index int) UDF {
					return UDFFunc(func(ctx *Context, rec Record) {
						if index == hold && !held.Swap(true) {
							<-release
							if crash {
								panic("consumer crash while its producer is parked")
							}
						}
						v := rec.Value.(seqVal)
						v.worker = ctx.e.t.id.Index
						rec.Value = v
						ctx.Emit(0, rec)
					})
				}).
				SetUDF("sink", func(int) UDF { return sink })
			exec, err := New(Config{
				Seed: 56, QueueCapacity: 4, MaxBatchRecords: 8, MeasurementInterval: 20 * time.Millisecond,
				restart: restartPolicy{maxRestarts: 50, backoff: 2 * time.Millisecond, backoffCap: 10 * time.Millisecond},
			}).Submit(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			ex := exec.ex
			ex.mu.Lock()
			src, w := ex.vertices["src"].tasks[0], ex.vertices["work"].tasks[hold]
			ex.mu.Unlock()
			r := w.inputs()[0].ring
			waitUntil(t, "the source to park on the held consumer's full ring", 5*time.Second, func() bool {
				return r.Stats().PushFails > 0 && src.pk.parked.Load()
			})
			if crash {
				before := sent.Load()
				close(release)
				waitUntil(t, "the source to emit again after the crash", 5*time.Second, func() bool {
					return sent.Load() > before+100 && exec.TaskRestarts() > 0
				})
			} else {
				if err := ex.Scale("work", -1); err != nil {
					t.Fatal(err)
				}
				if !w.draining.Load() {
					t.Fatal("the held consumer is not the scale-down task (test is broken)")
				}
				time.Sleep(40 * time.Millisecond) // the producer stays parked
				close(release)
				waitUntil(t, "the scale-down task to leave", 5*time.Second, func() bool {
					ex.mu.Lock()
					defer ex.mu.Unlock()
					return len(ex.vertices["work"].tasks) == 1
				})
			}
			time.Sleep(50 * time.Millisecond)
			exec.Stop()
			waitDone(t, exec, 20*time.Second)

			lost, dropped := exec.LostRecords(), exec.DroppedNoConsumer()
			sink.mu.Lock()
			defer sink.mu.Unlock()
			if sink.bad != 0 {
				t.Errorf("%d records reordered within a key's path", sink.bad)
			}
			if dropped != 0 || (!crash && lost != 0) {
				t.Errorf("LostRecords = %d, DroppedNoConsumer = %d, want 0", lost, dropped)
			}
			if crash && lost == 0 {
				t.Error("the crash lost nothing: the held batch and the held ring's queue should count")
			}
			if n := sent.Load(); n != sink.got+lost+dropped {
				t.Errorf("emitted %d = delivered %d + lost %d + dropped %d does not hold", n, sink.got, lost, dropped)
			}
		})
	}
}

// TestEngineSaturatedRingStalls saturates a sink behind a ring that
// QueueCapacity would let hold 64 batches: the ring holds ringDepth, its
// producer parks on it, and the data plane calls the edge
// consumer-limited on its stall fraction alone — one stall per park,
// with the producer woken at half the ring, reads above the classifier's
// 5 % threshold at this depth.
func TestEngineSaturatedRingStalls(t *testing.T) {
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: 3600}, // until Stop
			Emit: func(ctx *Context) {
				for i := 0; i < 64; i++ {
					ctx.Emit(0, Record{Key: uint64(i)})
				}
			},
		}).
		SetUDF("sink", func(int) UDF { return UDFFunc(func(*Context, Record) { busySpin(20 * time.Microsecond) }) }).
		SetEdgeBatching("src", "sink", BatchingFixed)
	tel := obs.NewTelemetry(64)
	exec, err := New(Config{
		Seed: 56, QueueCapacity: 64, MaxBatchRecords: 16, Telemetry: tel,
		MeasurementInterval: 20 * time.Millisecond, AdjustmentInterval: 100 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	edge := func() (e obs.DataplaneEdge) {
		if snap := tel.Dataplane(); snap != nil {
			for _, e = range snap.Edges {
				if e.Edge == "src->sink" {
					return e
				}
			}
		}
		return obs.DataplaneEdge{}
	}
	waitUntil(t, "a data-plane sample of the saturated edge", 10*time.Second, func() bool {
		return edge().PushRate > 0 && edge().PushFails > 0
	})
	time.Sleep(500 * time.Millisecond)
	e := edge()
	var state obs.BackpressureState
	for _, st := range tel.Backpressure().Snapshot() {
		if st.Edge == "src->sink" {
			state = st.State
		}
	}
	exec.Stop()
	waitDone(t, exec, 20*time.Second)
	if e.Rings != 1 || e.Capacity != ringDepth {
		t.Errorf("%d rings of capacity %d, want one of ringDepth %d", e.Rings, e.Capacity, ringDepth)
	}
	if e.StallFrac <= 0.05 || state != obs.BackpressureConsumerLimited {
		t.Errorf("stall fraction %.3f, state %q: want above 0.05 and %q",
			e.StallFrac, state, obs.BackpressureConsumerLimited)
	}
}

// TestLaneParkedProducerReports parks a producer behind a consumer that
// never runs (the job is built, not launched) and reads the report
// mailbox in the master's place: the parked lane still flushes its task
// report once per measurement interval, and it ships its batch once the
// consumer drains the ring halfway.
func TestLaneParkedProducerReports(t *testing.T) {
	const interval = 10 * time.Millisecond
	ex, err := New(Config{Seed: 1, QueueCapacity: 4, MeasurementInterval: interval}).build(startSpec(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := ex.vertices["src"].tasks[0]
	ref := src.lane.gates[0].Consumers()[0]
	for ref.ring.Push(batch{}) {
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		src.lane.now = time.Now()
		src.lane.ship([]shipment{{ref: ref, b: batch{items: make([]Record, 1)}}})
	}()
	start := time.Now()
	reports := 0
	for time.Since(start) < 30*interval {
		select {
		case msg := <-ex.reports:
			if m, ok := msg.(taskReportMsg); ok && m.report.Task == src.id {
				reports++
			}
		case <-done:
			t.Fatal("ship returned while the ring was full")
		case <-time.After(interval):
		}
	}
	// Each interval's wakeup re-parks: one stall per park.
	if want := 15; reports < want || ref.ring.Stats().PushFails < uint64(want) {
		t.Fatalf("%d task reports and %d stalls from the parked source in 30 intervals, want ≥ %d each",
			reports, ref.ring.Stats().PushFails, want)
	}
	filled, popped := ref.ring.Len(), 0
	for ref.ring.Len() > ref.ring.Cap()/2 {
		ref.ring.Pop()
		ref.popped()
		popped++
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the producer did not ship once the ring had drained halfway")
	}
	var last batch
	for b, ok := ref.ring.Pop(); ok; b, ok = ref.ring.Pop() {
		last = b
		popped++
	}
	if popped != filled+1 || len(last.items) != 1 {
		t.Errorf("popped %d batches, the last of %d records; want the %d queued, then the shipped one of 1",
			popped, len(last.items), filled)
	}
}
