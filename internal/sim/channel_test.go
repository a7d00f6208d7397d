package sim

import (
	"testing"

	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// holdsSlot reports whether ch's slot still names it, and fails the test
// if the slot names any other channel.
func holdsSlot(t *testing.T, s *Sim, ch *simChannel) bool {
	t.Helper()
	switch s.chanSlots[ch.slot] {
	case ch:
		return true
	case nil:
		return false
	}
	t.Fatalf("channel %v's slot %d names another channel", ch.id, ch.slot)
	return false
}

// TestSimClosedChannelLetsGo: a channel closed while batches are on it
// keeps its slot until its last batch is accepted, dropped or killed,
// and then lets go of it, whichever end went away.
func TestSimClosedChannelLetsGo(t *testing.T) {
	wantSlot := func(t *testing.T, h *queueHarness, c int, want bool, when string) {
		t.Helper()
		h.check()
		if got := holdsSlot(t, h.s, h.chs[c]); got != want {
			t.Fatalf("%s: channel %d holds its slot = %v, want %v", when, c, got, want)
		}
	}
	t.Run("producer drained", func(t *testing.T) {
		h := newQueueHarness(t)
		c := 1
		if h.chs[c].from != h.s.vertices["server"].tasks[1] {
			t.Fatal("channel 1 does not come from the server task a scale-down removes")
		}
		h.ship(c, 3, false)
		h.ship(c, 2, false)
		h.s.vertices["server"].removeTasks(1) // idle: disposed at once, its out-channel closes
		h.closed[c] = true
		wantSlot(t, h, c, true, "closed with two batches in transit")
		h.arrive(c)
		wantSlot(t, h, c, true, "one batch accepted")
		h.arrive(c)
		wantSlot(t, h, c, false, "both accepted")
	})
	t.Run("producer killed", func(t *testing.T) {
		h := newQueueHarness(t)
		h.deliver(1, harnessCapacity) // the other channel fills the queue
		h.deliver(0, 4)               // stalls
		h.ship(0, 2, false)
		h.killProducer(0) // the stalled batch is lost; the one in transit is not
		wantSlot(t, h, 0, true, "killed with a batch in transit")
		h.arrive(0) // taken at once, though the queue is full
		wantSlot(t, h, 0, false, "the last batch accepted")
	})
	t.Run("consumer killed", func(t *testing.T) {
		h := newQueueHarness(t)
		h.deliver(1, harnessCapacity)
		h.deliver(0, 4) // stalls
		h.ship(0, 2, false)
		h.ship(1, 1, true)
		h.kill()
		wantSlot(t, h, 0, true, "killed with a batch in transit")
		wantSlot(t, h, 1, true, "killed with a marker in transit")
		h.arrive(0) // dropped at the dead consumer
		h.arrive(1)
		wantSlot(t, h, 0, false, "the last batch dropped")
		wantSlot(t, h, 1, false, "the marker dropped")
	})
}

// TestSimChurnNeverDispatchesReleasedSlot: under scale-downs and a kill
// of a consumer with stalled and in-transit batches, every delivery
// names a channel that still holds its slot, and after every event a
// slot holds its channel exactly while the channel is open or holds a
// batch.
func TestSimChurnNeverDispatchesReleasedSlot(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes, &workload.ConstantSchedule{RatePerSecond: 4000, Length: 12}, false, 3,
		func(int) Behavior { return &testServer{mean: 2e-3} })
	cfg.Costs.NetFixed = 5e-3 // a channel holds ≈ 20 batches in transit from an unblocked source
	cfg.QueueCapacityItems = 50
	cfg.Faults = &FaultPlan{Respawn: true, RestartDelay: 1}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	var channels []*simChannel // every channel the run creates, as it appears
	seen := 0
	track := func() {
		t.Helper()
		channels = append(channels, s.chanSlots[seen:]...)
		seen = len(s.chanSlots)
		for _, ch := range channels {
			if ch == nil {
				t.Fatal("a channel let go of its slot in the event that created it")
			}
			if want := !ch.closed || ch.fifo.len() > 0; holdsSlot(t, s, ch) != want {
				t.Fatalf("t=%.4f: channel %v (closed %v, %d batches) holds its slot = %v", s.now, ch.id, ch.closed, ch.fifo.len(), !want)
			}
		}
	}
	track()
	var ev event
	step := func() {
		t.Helper()
		if !s.q.pop(&ev) {
			t.Fatal("event queue ran dry")
		}
		if ev.kind == evDeliver && s.chanSlots[ev.n] == nil {
			t.Fatalf("t=%.4f: a delivery names released slot %d", ev.at, ev.n)
		}
		s.now = ev.at
		s.dispatch(&ev)
		if s.err != nil {
			t.Fatal(s.err)
		}
		track()
	}
	server := s.vertices["server"]
	for s.now < 2 {
		step()
	}
	if err := (simRuntime{s}).Scale("server", -2); err != nil {
		t.Fatal(err)
	}
	track()
	// Wait until the remaining server has batches stalled on its input
	// channel and more in transit behind them, then kill it.
	victim := server.tasks[0]
	in := victim.in[0]
	for in.arrived == 0 || in.fifo.len() == in.arrived {
		if s.now > 6 {
			t.Fatal("the server never had stalled and in-transit batches at once")
		}
		step()
	}
	killedBefore := s.killedItems
	s.injectTaskKill(TaskKill{Vertex: "server", Count: 1}, cfg.Faults)
	track()
	if !victim.killed || s.killedItems == killedBefore {
		t.Fatalf("killed %v, %d items lost: want the server killed with its stalled batches", victim.killed, s.killedItems-killedBefore)
	}
	if !in.closed || !holdsSlot(t, s, in) {
		t.Fatal("the killed server's input channel must be closed and hold its slot while batches are in transit on it")
	}
	for s.now < 12 {
		step()
	}
	if holdsSlot(t, s, in) {
		t.Error("the killed server's input channel still holds its slot after its last batch arrived")
	}
	open, released := 0, 0
	for _, ch := range channels {
		if !ch.closed {
			open++
		} else if !holdsSlot(t, s, ch) {
			released++
		}
	}
	if released == 0 || s.scaleDowns != 1 || s.respawnedTasks != 1 {
		t.Fatalf("%d channels released, %d scale-downs, %d respawns: the run did not churn", released, s.scaleDowns, s.respawnedTasks)
	}
	t.Logf("%d channels: %d open, %d released", len(channels), open, released)
}
