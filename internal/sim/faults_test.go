package sim

import (
	"testing"

	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// faultConfig builds the standard test pipeline with a fault plan.
func faultConfig(t *testing.T, probes *ProbeSet, serverP int, plan *FaultPlan) Config {
	t.Helper()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 100, Length: 60}, false, serverP,
		func(int) Behavior { return &testServer{mean: 0.002} })
	cfg.Faults = plan
	return cfg
}

// TestFaultTaskKillRecovery: killing worker tasks mid-run must not wedge
// the pipeline — producers blocked on the victims resume, respawned
// tasks restore parallelism, and items keep flowing end to end.
func TestFaultTaskKillRecovery(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := faultConfig(t, probes, 4, &FaultPlan{
		TaskKills:    []TaskKill{{At: 20, Vertex: "server", Count: 2}},
		Respawn:      true,
		RestartDelay: 1,
	})
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledTasks != 2 {
		t.Errorf("KilledTasks = %d, want 2", res.KilledTasks)
	}
	if res.RespawnedTasks != 2 {
		t.Errorf("RespawnedTasks = %d, want 2", res.RespawnedTasks)
	}
	if got := res.FinalParallelism["server"]; got != 4 {
		t.Errorf("final server parallelism = %d, want 4 after respawn", got)
	}
	if res.Probes["e2e"].Count == 0 {
		t.Error("no items reached the sink")
	}
	// The pipeline must still deliver after the kill: the last row's sink
	// throughput stays positive.
	if len(res.Rows) == 0 {
		t.Fatal("no time-series rows")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Processed["sink"] <= 0 {
		t.Errorf("sink throughput after recovery = %g, want > 0", last.Processed["sink"])
	}
}

// TestFaultFractionKill: Fraction selects ceil(f·parallelism) victims.
func TestFaultFractionKill(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := faultConfig(t, probes, 8, &FaultPlan{
		TaskKills: []TaskKill{{At: 20, Vertex: "server", Fraction: 0.25}},
	})
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledTasks != 2 {
		t.Errorf("KilledTasks = %d, want ceil(0.25*8) = 2", res.KilledTasks)
	}
	if got := res.FinalParallelism["server"]; got != 6 {
		t.Errorf("final server parallelism = %d, want 6 (no respawn)", got)
	}
}

// TestFaultNodeKill: failing a worker node kills its tasks, shrinks the
// pool, and respawned tasks land on surviving nodes.
func TestFaultNodeKill(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := faultConfig(t, probes, 4, &FaultPlan{
		NodeKills:    []NodeKill{{At: 20, NodeIndex: 0}},
		Respawn:      true,
		RestartDelay: 1,
	})
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledNodes != 1 {
		t.Errorf("KilledNodes = %d, want 1", res.KilledNodes)
	}
	if res.KilledTasks < 1 {
		t.Errorf("KilledTasks = %d, want >= 1 (the node hosted tasks)", res.KilledTasks)
	}
	if res.RespawnedTasks != res.KilledTasks {
		t.Errorf("RespawnedTasks = %d, want %d", res.RespawnedTasks, res.KilledTasks)
	}
	for _, v := range []string{"src", "server", "sink"} {
		want := map[string]int{"src": 1, "server": 4, "sink": 1}[v]
		if got := res.FinalParallelism[v]; got != want {
			t.Errorf("final %s parallelism = %d, want %d", v, got, want)
		}
	}
}

// TestFaultDeterminism: the same seed and plan replay the same failure
// scenario bit for bit.
func TestFaultDeterminism(t *testing.T) {
	run := func() *Result {
		probes := probe.NewProbeSet()
		cfg := faultConfig(t, probes, 4, &FaultPlan{
			TaskKills:    []TaskKill{{At: 15, Vertex: "server", Count: 1}, {At: 30, Vertex: "server", Count: 1}},
			Respawn:      true,
			RestartDelay: 0.5,
		})
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.KilledItems != b.KilledItems || a.DroppedItems != b.DroppedItems {
		t.Errorf("lost-item counts diverged: (%d, %d) vs (%d, %d)",
			a.KilledItems, a.DroppedItems, b.KilledItems, b.DroppedItems)
	}
	if a.Emitted["src"] != b.Emitted["src"] {
		t.Errorf("emitted diverged: %d vs %d", a.Emitted["src"], b.Emitted["src"])
	}
	if a.Probes["e2e"].Count != b.Probes["e2e"].Count {
		t.Errorf("sink counts diverged: %d vs %d", a.Probes["e2e"].Count, b.Probes["e2e"].Count)
	}
	if a.TaskHours != b.TaskHours {
		t.Errorf("task-hours diverged: %g vs %g", a.TaskHours, b.TaskHours)
	}
}

// TestFaultStaleQoSHistory: a killed task's QoS history is not forgotten
// — the next global summary still aggregates it (stale), and only the
// live tasks count as fresh. This is the stale-measurement window the
// coverage-gated scaler exists for.
func TestFaultStaleQoSHistory(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := faultConfig(t, probes, 4, &FaultPlan{
		TaskKills: []TaskKill{{At: 12, Vertex: "server", Count: 1}},
	})
	type obs struct {
		tasks, fresh, par int
	}
	var firstAfterKill *obs
	cfg.OnAdjust = func(info AdjustmentInfo) {
		// Freshness means "reported within the current adjustment
		// interval", so the task killed at t=12 (its last report is at
		// t=11, inside the [10, 15) window) only turns stale at the
		// t=20 adjustment — the first whose whole window it missed.
		if info.Now <= 17 || firstAfterKill != nil {
			return
		}
		vs, ok := info.Summary.Vertices["server"]
		if !ok {
			return
		}
		firstAfterKill = &obs{tasks: vs.Tasks, fresh: vs.FreshTasks, par: 3}
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if firstAfterKill == nil {
		t.Fatal("no adjustment observed after the kill")
	}
	if firstAfterKill.tasks != 4 {
		t.Errorf("summary tasks right after kill = %d, want 4 (3 live + 1 stale)", firstAfterKill.tasks)
	}
	if firstAfterKill.fresh != 3 {
		t.Errorf("fresh tasks right after kill = %d, want 3 (the survivors)", firstAfterKill.fresh)
	}
}

// TestFaultPlanValidation rejects malformed plans at New time.
func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan *FaultPlan
	}{
		{"unknown vertex", &FaultPlan{TaskKills: []TaskKill{{At: 1, Vertex: "nope"}}}},
		{"negative time", &FaultPlan{TaskKills: []TaskKill{{At: -1, Vertex: "server"}}}},
		{"fraction out of range", &FaultPlan{TaskKills: []TaskKill{{At: 1, Vertex: "server", Fraction: 1.5}}}},
		{"negative node index", &FaultPlan{NodeKills: []NodeKill{{At: 1, NodeIndex: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probes := probe.NewProbeSet()
			cfg := faultConfig(t, probes, 2, tc.plan)
			if _, err := New(cfg, probes); err == nil {
				t.Errorf("New accepted invalid plan %q", tc.name)
			}
		})
	}
}
