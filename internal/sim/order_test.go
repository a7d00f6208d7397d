package sim

import (
	"testing"

	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// srcEdge is the src → server edge of pipelineConfig.
var srcEdge = model.EdgeKey{Source: "src", Target: "server"}

// handDriven builds src(1) → server(1) → sink(1) with the src → server
// edge configured as ec and drops the start-up events, so from here on
// the test makes every event itself by emitting from the source task.
func handDriven(t *testing.T, ec EdgeConfig, costs CostModel) (*Sim, *simTask) {
	t.Helper()
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes, &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, false, 1,
		func(int) Behavior { return &testServer{mean: 1e-3} })
	cfg.Edges[srcEdge] = ec
	cfg.Costs = costs
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	var ev event
	for s.q.pop(&ev) {
	}
	return s, s.vertices["src"].tasks[0]
}

// runEvents dispatches the queued events in order until none is left,
// calling each after every one; an event before the current virtual
// time fails the test.
func runEvents(t *testing.T, s *Sim, each func()) {
	t.Helper()
	var ev event
	for s.q.pop(&ev) {
		if ev.at < s.now {
			t.Fatalf("event %s at %.6f pops after t=%.6f: virtual time ran backwards", eventKindNames[ev.kind], ev.at, s.now)
		}
		s.now = ev.at
		s.dispatch(&ev)
		if s.err != nil {
			t.Fatal(s.err)
		}
		if each != nil {
			each()
		}
	}
}

// TestSimFlushAfterSizeFlushKeepsDeadline: a record buffered after a size
// flush ships by its own deadline with no later push. The timer armed
// for the first record is still set when the size flush ships it, so the
// record behind it arms none; that timer must ship it or re-arm for it.
func TestSimFlushAfterSizeFlushKeepsDeadline(t *testing.T) {
	const dl = 5e-3
	s, src := handDriven(t, EdgeConfig{Mode: BatchAdaptive, BufferBytes: 128}, lightCosts())
	g := src.gates[0]
	g.deadline = dl
	s.now = 1
	s.emit(src, 0, &Item{Size: 64, Key: 1}) // arms the timer for 1.005
	s.emit(src, 0, &Item{Size: 64, Key: 2}) // 128 bytes: size flush
	bufferedAt, shipped := -1.0, -1.0
	runEvents(t, s, func() {
		if bufferedAt < 0 {
			// The flushed batch has just arrived: buffer one more record,
			// due just after the timer armed for the first.
			bufferedAt = s.now
			s.emit(src, 0, &Item{Size: 64, Key: 3})
			if g.Buffered() != 1 || !g.timerSet {
				t.Fatalf("buffered %d, timer set %v: want one record behind the first record's timer", g.Buffered(), g.timerSet)
			}
			return
		}
		if shipped < 0 && g.Buffered() == 0 {
			shipped = s.now
		}
	})
	if shipped < 0 {
		t.Fatal("the record buffered after the size flush never shipped")
	}
	if want := bufferedAt + dl; shipped > want {
		t.Fatalf("the record buffered at %.7f shipped at %.7f, want by its deadline %.7f", bufferedAt, shipped, want)
	}
}

// TestSimChannelFIFODuringTCPSetup: without a processing guarantee
// (at-most-once) a channel is still FIFO, like the engine's rings. The
// first batch on a fresh channel pays the TCP setup; a second batch
// shipped during that transit must not overtake it.
func TestSimChannelFIFODuringTCPSetup(t *testing.T) {
	costs := lightCosts()
	costs.TCPSetup = 10e-3
	s, src := handDriven(t, EdgeConfig{Mode: BatchInstant}, costs)
	if s.guar != nil {
		t.Fatal("the run has a processing guarantee; this test is about the at-most-once default")
	}
	server := s.vertices["server"].tasks[0]
	server.busy = true // keep every arrival in the queue, in arrival order
	s.now = 1
	s.emit(src, 0, &Item{Size: 64, Key: 1}) // arrives at 1.01 + transit
	s.now = 1.001
	s.emit(src, 0, &Item{Size: 64, Key: 2}) // ships during the setup
	runEvents(t, s, nil)

	var keys []uint64
	last := 0.0
	for _, b := range server.queue.batches[server.queue.head:] {
		if b.arrive < last {
			t.Errorf("batch of key %d arrived at %.6f, before the one ahead of it (%.6f)", b.items[0].Key, b.arrive, last)
		}
		last = b.arrive
		for _, it := range b.items {
			keys = append(keys, it.Key)
		}
	}
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("the server queued keys %v, want [1 2]: the second batch overtook the first", keys)
	}
}

// TestSimOverdueDeadlineFiresNow: when a deadline turns finite on a gate
// whose blocked producer holds records, the oldest record's deadline may
// already have lapsed. The flush check then fires now, never at the
// lapsed time: virtual time does not run backwards (fig3 Nephele-20ms
// meets this at t = 175 s).
func TestSimOverdueDeadlineFiresNow(t *testing.T) {
	s, src := handDriven(t, EdgeConfig{Mode: BatchAdaptive, BufferBytes: 1 << 20}, lightCosts())
	g := src.gates[0]
	src.blockedOut = 1 // stuck in a send: the instant flush is deferred
	s.now = 1
	s.emit(src, 0, &Item{Size: 64, Key: 1})
	if g.Buffered() != 1 || !g.pending {
		t.Fatalf("buffered %d, pending %v: want the record held under a deferred flush", g.Buffered(), g.pending)
	}
	s.now = 1.01
	simRuntime{s}.SetDeadlines(map[model.EdgeKey]float64{srcEdge: 5e-3}) // lapsed at 1.005
	if s.err != nil {
		t.Fatal(s.err)
	}
	var ev event
	if !s.q.pop(&ev) || ev.kind != evFlushTimer {
		t.Fatalf("next event %+v, want the flush check", ev)
	}
	if ev.at != s.now {
		t.Fatalf("the overdue flush check fires at %.6f, want now (%.6f)", ev.at, s.now)
	}
	s.dispatch(&ev)
	if g.Buffered() != 1 || !g.pending {
		t.Fatalf("buffered %d, pending %v after the check: the blocked producer must keep deferring", g.Buffered(), g.pending)
	}
	src.blockedOut = 0
	s.resume(src)
	runEvents(t, s, nil)
	if g.Buffered() != 0 {
		t.Fatalf("%d records still buffered after the producer resumed", g.Buffered())
	}
}

// TestSimStalledBatchKeepsChannelOrder: a batch arriving behind a
// stalled batch of its channel stalls too, even when the queue has room
// for it, so backpressure never reorders a channel.
func TestSimStalledBatchKeepsChannelOrder(t *testing.T) {
	h := newQueueHarness(t)
	h.deliver(1, harnessCapacity-1) // the other channel fills the queue
	h.deliver(0, 5)                 // no room: stalls
	h.ship(0, 1, true)              // a barrier marker: room for it, but not before the stalled batch
	h.arrive(0)
	if n := h.chs[0].arrived; n != 2 {
		t.Fatalf("%d batches stalled on the channel, want 2", n)
	}
	for h.to.queueLen() > 0 {
		h.pop()
	}
	h.check()
}
