package sim

import (
	"math"
	"math/rand"
	"testing"

	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// forwarder serves each item in a fixed time and emits a 100-byte copy.
type forwarder struct{ st float64 }

func (f forwarder) ServiceTime(*rand.Rand, *Item) float64 { return f.st }

func (f forwarder) Process(ctx *TaskContext, it *Item) {
	out := *it
	out.Size = 100
	ctx.Emit(0, &out)
}

// shipLog is a sink that records, per source sequence number, when the
// item entered the forwarder's output buffer and when it arrived.
type shipLog struct{ buffered, arrived map[uint64]float64 }

func (l shipLog) ServiceTime(*rand.Rand, *Item) float64 { return 1e-9 }

func (l shipLog) Process(ctx *TaskContext, it *Item) {
	l.buffered[it.Key] = it.BufferTime
	l.arrived[it.Key] = ctx.Now()
}

// settleRun runs src → work → sink. The source emits 100 items/s for 2 s
// numbered by Key and ships them to work in input batches of exactly
// inBatch items; work serves each in 1 ms and emits 100 bytes into a
// 1000-byte work→sink buffer under deadline dl (+Inf: size only), set
// directly on the gate (no constraint, so nothing resets it).
func settleRun(t *testing.T, inBatch int, dl float64) shipLog {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []string{"src", "work", "sink"} {
		if err := g.AddVertex(model.JobVertex{Name: v, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "work"}, {"work", "sink"}} {
		if err := g.AddEdge(e[0], e[1], model.PatternRoundRobin); err != nil {
			t.Fatal(err)
		}
	}
	log := shipLog{buffered: map[uint64]float64{}, arrived: map[uint64]float64{}}
	var seq uint64
	cfg := Config{
		Graph: g,
		Vertices: map[string]VertexConfig{
			"src": {Source: &SourceConfig{
				Schedule: &workload.ConstantSchedule{RatePerSecond: 100, Length: 2},
				EmitCost: 1e-9,
				Emit: func(ctx *TaskContext, now float64) {
					ctx.Emit(0, &Item{EmitTime: now, Size: 10, Key: seq})
					seq++
				},
			}},
			"work": {NewBehavior: func(int) Behavior { return forwarder{st: 1e-3} }},
			"sink": {NewBehavior: func(int) Behavior { return log }},
		},
		Edges: map[model.EdgeKey]EdgeConfig{
			{Source: "src", Target: "work"}:  {Mode: BatchFixedBuffer, BufferBytes: 10 * inBatch},
			{Source: "work", Target: "sink"}: {Mode: BatchAdaptive, BufferBytes: 1000},
		},
		Costs:        lightCosts(),
		WorkerNodes:  4,
		SlotsPerNode: 4,
		Seed:         1,
	}
	s, err := New(cfg, probe.NewProbeSet())
	if err != nil {
		t.Fatal(err)
	}
	s.vertices["work"].tasks[0].gates[0].deadline = dl
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log.arrived) < 150 {
		t.Fatalf("only %d items reached the sink", len(log.arrived))
	}
	return log
}

// checkShips asserts that every item that reached the sink left work's
// buffer when shipAt says: the virtual time of the push (or timer) that
// shipped it, given the buffer times of its input batch.
func checkShips(t *testing.T, log shipLog, shipAt func(key uint64) (float64, bool)) {
	t.Helper()
	const transit, tol = 1e-7, 1e-6
	for key, arrived := range log.arrived {
		want, ok := shipAt(key)
		if !ok {
			continue
		}
		if got := arrived - transit; math.Abs(got-want) > tol {
			t.Fatalf("item %d (buffered at %.6f) shipped at %.6f, want %.6f", key, log.buffered[key], got, want)
		}
	}
}

// TestSimSettle: a consumer ships a slot's leftover when the input batch
// that filled it has finished service, and only then.
func TestSimSettle(t *testing.T) {
	t.Run("an input batch fills the buffer: its leftover ships at the batch's end", func(t *testing.T) {
		// 13 items of 100 bytes: a size flush after the 10th, and the 3
		// left over ship when the 13th finishes service — not with the
		// next input batch, 130 ms later.
		log := settleRun(t, 13, math.Inf(1))
		checkShips(t, log, func(key uint64) (float64, bool) {
			first := key - key%13
			last := first + 9
			if key%13 >= 10 {
				last = first + 12
			}
			at, ok := log.buffered[last]
			return at, ok
		})
	})

	t.Run("a fill across input batches keeps today's timing", func(t *testing.T) {
		// Input batches of 4: every shipped batch is 10 items, sent by the
		// push that fills it; the 2 items a fill leaves wait for the next.
		log := settleRun(t, 4, math.Inf(1))
		checkShips(t, log, func(key uint64) (float64, bool) {
			at, ok := log.buffered[key-key%10+9]
			return at, ok
		})
	})

	t.Run("a deadline that splits the input batch keeps today's timing", func(t *testing.T) {
		// 13 items a batch (1300 bytes pushed) under a 3.5 ms deadline: the
		// timer ships 4 items at a time and never lets the buffer reach
		// the cap, so the 13th waits for its own deadline.
		const dl = 3.5e-3
		log := settleRun(t, 13, dl)
		checkShips(t, log, func(key uint64) (float64, bool) {
			p := key % 13
			at, ok := log.buffered[key-p+p/4*4]
			return at + dl, ok
		})
	})
}
