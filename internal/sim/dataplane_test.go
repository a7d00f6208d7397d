package sim

import (
	"slices"
	"testing"

	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// TestSimEdgeTotalsSurviveChannelClose: an edge's data-plane counters are
// cumulative over every channel it ever had. Disposing a scaled-down
// consumer closes one of the edge's channels; that drops the edge's
// open-channel count by one and leaves its push and pop totals where
// they were, and the totals stay the sums over every channel the run
// created.
func TestSimEdgeTotalsSurviveChannelClose(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes, &workload.ConstantSchedule{RatePerSecond: 400, Length: 30}, false, 4,
		func(int) Behavior { return &testServer{mean: 2e-3} })
	cfg.Telemetry = obs.NewTelemetry(0)
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	channels := slices.Clone(s.chanSlots) // every channel of the run: it scales by hand, and only down
	const edge = "src->server"
	scrape := func() obs.DataplaneEdge {
		t.Helper()
		s.scrapeDataplane()
		for _, de := range cfg.Telemetry.Dataplane().Edges {
			if de.Edge == edge {
				return de
			}
		}
		t.Fatalf("no %s in the snapshot", edge)
		return obs.DataplaneEdge{}
	}
	var ev event
	step := func() {
		t.Helper()
		if !s.q.pop(&ev) {
			t.Fatal("event queue ran dry")
		}
		s.now = ev.at
		s.dispatch(&ev)
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	for s.now < 2 {
		step()
	}
	if de := scrape(); de.Rings != 4 || de.Pushes == 0 {
		t.Fatalf("before the scale-down: %d open channels, %d pushes; want 4 and some", de.Rings, de.Pushes)
	}

	// The scaled-down task is disposed by the scale-down itself when it
	// is idle, else by the event that ends its drain.
	before := scrape()
	if err := (simRuntime{s}).Scale("server", -1); err != nil {
		t.Fatal(err)
	}
	server := s.vertices["server"]
	for len(server.draining) > 0 {
		before = scrape()
		step()
	}
	after := scrape()
	if after.Rings != before.Rings-1 || len(server.tasks) != 3 {
		t.Errorf("disposal left %d open channels and %d tasks, want %d and 3", after.Rings, len(server.tasks), before.Rings-1)
	}
	if after.Pushes != before.Pushes || after.Pops != before.Pops {
		t.Errorf("disposal moved pushes %d → %d, pops %d → %d; want both unchanged",
			before.Pushes, after.Pushes, before.Pops, after.Pops)
	}

	for s.now < 4 {
		step()
	}
	// Every open channel is in a live consumer's in list, and each edge's
	// totals are the sums over every channel the run created, whatever
	// moved on a channel after it closed (the disposed server's last
	// batches to the sink land after its channels closed).
	s.eachLiveTask(func(task *simTask) {
		for _, ch := range task.in {
			if ch.closed {
				t.Errorf("closed channel %v in %v's in list", ch.id, task.id)
			}
		}
	})
	s.scrapeDataplane()
	for _, de := range cfg.Telemetry.Dataplane().Edges {
		var pushes, fails, pops uint64
		for _, ch := range channels {
			if ch.edgeName == de.Edge {
				pushes += uint64(ch.accepted)
				fails += uint64(ch.stallItems)
				pops += uint64(ch.popped)
			}
		}
		if de.Pushes != pushes || de.PushFails != fails || de.Pops != pops {
			t.Errorf("%s pushes/pushFails/pops = %d/%d/%d, every channel's sum %d/%d/%d",
				de.Edge, de.Pushes, de.PushFails, de.Pops, pushes, fails, pops)
		}
	}
}
