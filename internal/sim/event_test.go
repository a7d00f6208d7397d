package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// TestEventQueueOrdering pushes random timestamps (with deliberate
// duplicates) on both sides of the wheel's window and checks that pops
// come out sorted by (at, seq): earliest time first, FIFO within equal
// times. This is the total-order contract every queue shape must keep.
func TestEventQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	const n = 5000
	pushed, popped := 0, 0
	for i := 0; i < n; i++ {
		// Coarse timestamps over half a second force many ties, to
		// exercise the seq tie-break, in the wheel and in the far heap.
		at := float64(rng.Intn(64)) / 128
		q.push(at, evMeasure, 0, int32(i))
		pushed++
		// Interleave pops so the queue sees mixed push/pop traffic.
		if rng.Intn(4) == 0 {
			if !q.pop(new(event)) {
				t.Fatal("pop from non-empty queue failed")
			}
			popped++
		}
	}
	var prev, ev event
	for first := true; q.pop(&ev); first = false {
		if !first && !eventLess(&prev, &ev) {
			t.Fatalf("pop out of (at, seq) order: (%v, %d) after (%v, %d)", ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
		popped++
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d pushed events", popped, pushed)
	}
	if q.pop(&ev) {
		t.Fatal("pop from empty queue succeeded")
	}
}

// queueModel is the reference FuzzEventQueue compares against: pending
// events in push order, popped by a linear search for the least
// (at, seq).
type queueModel struct {
	pending []event
	seq     uint64
}

func (m *queueModel) push(ev event) {
	m.seq++
	ev.seq = m.seq
	m.pending = append(m.pending, ev)
}

func (m *queueModel) pop() (event, bool) {
	if len(m.pending) == 0 {
		return event{}, false
	}
	least := 0
	for i := range m.pending {
		if eventLess(&m.pending[i], &m.pending[least]) {
			least = i
		}
	}
	ev := m.pending[least]
	m.pending = append(m.pending[:least], m.pending[least+1:]...)
	return ev, true
}

// FuzzEventQueue drives the queue and the reference model with the same
// byte-coded stream of pushes and pops and requires the same pop
// sequence — every field, and emptiness. A byte's top three bits pick
// the operation, its low five bits k the size; times are offsets from
// the last popped event, the simulator's "now".
func FuzzEventQueue(f *testing.F) {
	const bucket = 1.0 / wheelRate
	const window = wheelSize * bucket
	op := func(code, k byte) byte { return code<<5 | k }
	f.Add([]byte{op(1, 0), op(1, 0), op(2, 0), op(1, 0), 0, 0, 0, 0, 0})            // exact ties
	f.Add([]byte{op(3, 0), op(3, 31), op(3, 7), op(1, 0), 0, 0, op(3, 3), 0, 0, 0}) // inside one bucket
	f.Add([]byte{op(4, 31), op(4, 1), op(4, 16), 0, op(4, 2), 0, 0, 0, 0})          // many buckets
	f.Add([]byte{op(5, 0), op(5, 1), op(5, 2), op(1, 0), 0, op(5, 1), 0, 0, 0, 0})  // around the window's edge
	f.Add([]byte{op(6, 1), op(6, 31), op(1, 0), 0, 0, op(6, 9), op(3, 2), 0, 0, 0}) // far heap, migration
	f.Add([]byte{op(6, 31), 0, op(6, 31), 0, op(6, 31), 0, op(4, 5), 0, 0})         // idle gaps: the wheel wraps
	f.Add([]byte{op(4, 9), 0, op(7, 3), op(1, 0), 0, 0, 0})                         // behind "now"
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048] // the model pops in O(pending)
		}
		var q eventQueue
		var m queueModel
		now, lastPush := 0.0, 0.0
		check := func(step int) {
			var got event
			gok := q.pop(&got)
			want, wok := m.pop()
			if got != want || gok != wok {
				t.Fatalf("step %d: pop = %+v, %v; model = %+v, %v", step, got, gok, want, wok)
			}
			if gok {
				now = got.at
			}
		}
		for i, c := range ops {
			k := float64(c & 31)
			var at float64
			switch c >> 5 {
			case 0:
				check(i)
				continue
			case 1:
				at = now
			case 2:
				at = lastPush
			case 3:
				at = now + (k+1)*bucket/32
			case 4:
				at = now + k*7.3*bucket
			case 5:
				at = now + window + (k-1)*bucket/2
			case 6:
				at = now + 0.3 + k*0.37
			case 7:
				at = now - k*bucket
			}
			ev := event{at: at, tslot: int32(i), n: -int32(i), kind: eventKind(i%int(evCheckpoint) + 1)}
			q.push(ev.at, ev.kind, ev.tslot, ev.n)
			m.push(ev)
			lastPush = at
		}
		for i := 0; len(m.pending) > 0; i++ {
			check(len(ops) + i)
		}
		check(-1) // both empty
	})
}

// BenchmarkEventQueueHold is the classic hold model: pop the earliest
// event, push one at its time + Δ, at a fixed resident size. Δ follows
// the kinds sim-primetester schedules (21 % source intervals, 18 %
// flush deadlines, 19 % transits, 42 % service times, at that job's
// magnitudes), and one event in 4096 is a 1 s control tick, which takes
// the far-heap and migration path.
func BenchmarkEventQueueHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	deltas := make([]float64, 4096)
	for i := range deltas {
		switch u := rng.Float64(); {
		case i == 0:
			deltas[i] = 1
		case u < 0.21:
			deltas[i] = 8e-3 * (0.9 + 0.2*rng.Float64())
		case u < 0.39:
			deltas[i] = 4e-3
		case u < 0.58:
			deltas[i] = 0.3e-3 + 8e-9*float64(64*(1+rng.Intn(32)))
		default:
			deltas[i] = 3.15e-3 * (0.85 + 0.3*rng.Float64())
		}
	}
	for _, size := range []int{16, 64, 256, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			var q eventQueue
			for i := 0; i < size; i++ {
				q.push(deltas[i%len(deltas)], evServiceDone, int32(i), 0)
			}
			// One turn through the deltas settles the arena and the
			// far heap at their steady size.
			var ev event
			hold := func(i int) {
				q.pop(&ev)
				q.push(ev.at+deltas[i&(len(deltas)-1)], ev.kind, ev.tslot, 0)
			}
			for i := 0; i < len(deltas); i++ {
				hold(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold(i)
			}
		})
	}
}

// TestEventQueueSetupAllocs keeps set-up free of per-bucket work: the
// queue lives inline in the Sim and its zero value is ready, so New
// allocates what it did with the plain heap (165 on this config at the
// parent of the PR that added the wheel, 154 since tasks and channels
// hold their QoS reporters by value, 157 since the control state is a
// master.Loop with its observer list; raise the constant when New itself
// comes to allocate more), and a fresh queue's first far push and pop
// allocate one heap entry and one arena node, nothing else.
func TestEventQueueSetupAllocs(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 120}, false, 4,
		func(int) Behavior { return &testServer{mean: 0.010} })
	const parentAllocs = 157
	got := testing.AllocsPerRun(10, func() {
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		if !s.q.pop(new(event)) {
			t.Fatal("a fresh Sim has no scheduled event")
		}
	})
	if got > parentAllocs+2 {
		t.Errorf("New + first pop: %.0f allocs, want ≤ %d", got, parentAllocs+2)
	}
	if got := testing.AllocsPerRun(10, func() {
		var q eventQueue
		q.push(1, evMeasure, 0, 0)
		q.pop(new(event))
	}); got > 2 {
		t.Errorf("fresh queue, first push and pop: %.0f allocs, want ≤ 2", got)
	}
}

// TestNonFiniteEventTimeFailsRun: a NaN or infinite time reaching the
// queue — here from Behavior.ServiceTime, a transit cost and a source
// schedule — must end Run with an error naming the event kind and the
// task; it must not scramble the pop order, park the task busy forever
// or panic.
func TestNonFiniteEventTimeFailsRun(t *testing.T) {
	sched := func(rate float64) workload.Schedule {
		return &workload.ConstantSchedule{RatePerSecond: rate, Length: 10}
	}
	for _, tc := range []struct {
		name    string
		service float64
		net     float64
		sched   workload.Schedule
		want    string
	}{
		{"NaN service time", math.NaN(), 1e-7, sched(200), "service-done event of server"},
		{"+Inf service time", math.Inf(1), 1e-7, sched(200), "service-done event of server"},
		{"NaN transit", 0.001, math.NaN(), sched(200), "deliver event of src"},
		{"NaN source interval", 0.001, 1e-7, sched(math.NaN()), "source-emit event of src"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probes := probe.NewProbeSet()
			cfg := pipelineConfig(t, probes, tc.sched, false, 2,
				func(int) Behavior { return &testServer{mean: tc.service} })
			cfg.Costs.NetFixed = tc.net
			s, err := New(cfg, probes)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
