package qos

import (
	"testing"

	"nephelix/internal/model"
)

// seqGraph builds a src -> work -> sink chain and returns the full
// sequence over it.
func seqGraph(t *testing.T) *model.Sequence {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1},
		{Name: "work", Parallelism: 4, MinParallelism: 1, MaxParallelism: 8},
		{Name: "sink", Parallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "work", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink", "sink")
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func reportWorkers(m *Manager, indices ...int) {
	for _, i := range indices {
		m.ReportTask(TaskReport{Task: taskID("work", i), ServiceCount: 1, ServiceMean: 0.01})
	}
}

func TestFreshnessTracking(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 5, EvictAfter: 3})
	reportWorkers(m, 0, 1, 2, 3)
	m.ReportTask(TaskReport{Task: taskID("sink", 0), ServiceCount: 1, ServiceMean: 0.001})

	p := m.PartialSummary()
	if got := p.vertices["work"].freshCount; got != 4 {
		t.Errorf("fresh work tasks: got %d, want 4", got)
	}
	s := p.Finalize(map[string]int{"work": 4, "sink": 1})
	if s.Vertices["work"].FreshTasks != 4 {
		t.Errorf("FreshTasks: got %d, want 4", s.Vertices["work"].FreshTasks)
	}

	// Next interval only two workers report: the other two histories are
	// still live (idle < EvictAfter) but no longer fresh.
	reportWorkers(m, 0, 1)
	m.ReportTask(TaskReport{Task: taskID("sink", 0), ServiceCount: 1, ServiceMean: 0.001})
	s = MergePartials(map[string]int{"work": 4, "sink": 1}, m.PartialSummary())
	v := s.Vertices["work"]
	if v.Parallelism != 4 || v.FreshTasks != 2 {
		t.Errorf("stale workers: parallelism=%d fresh=%d, want 4/2", v.Parallelism, v.FreshTasks)
	}
}

func TestSequenceCoverage(t *testing.T) {
	seq := seqGraph(t)
	m := NewManager(ManagerConfig{HistoryLength: 5, EvictAfter: 3})
	m.ReportTask(TaskReport{Task: taskID("src", 0), ServiceCount: 1, ServiceMean: 0.001})
	reportWorkers(m, 0, 1, 2, 3)
	m.ReportTask(TaskReport{Task: taskID("sink", 0), ServiceCount: 1, ServiceMean: 0.001})
	par := map[string]int{"src": 1, "work": 4, "sink": 1}

	s := MergePartials(par, m.PartialSummary())
	if got := s.SequenceCoverage(seq); got != 1.0 {
		t.Errorf("full coverage: got %v, want 1", got)
	}

	// Half the workers stop reporting (crashed). The sequence's vertex
	// set is {work, sink} (it starts with an edge): 3 of 5 slots fresh.
	m.ReportTask(TaskReport{Task: taskID("src", 0), ServiceCount: 1, ServiceMean: 0.001})
	reportWorkers(m, 0, 1)
	m.ReportTask(TaskReport{Task: taskID("sink", 0), ServiceCount: 1, ServiceMean: 0.001})
	s = MergePartials(par, m.PartialSummary())
	if got, want := s.SequenceCoverage(seq), 3.0/5.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("partial coverage: got %v, want %v", got, want)
	}

	// A vertex missing entirely from the summary pins its slot stale.
	empty := NewSummary()
	if got := empty.SequenceCoverage(seq); got != 0 {
		t.Errorf("empty summary coverage: got %v, want 0", got)
	}
}

func TestSequenceCoverageClampsOverreport(t *testing.T) {
	// More fresh reports than the authoritative parallelism (e.g. during
	// a scale-down transient) must not push coverage above 1.
	seq := seqGraph(t)
	m := NewManager(DefaultManagerConfig())
	m.ReportTask(TaskReport{Task: taskID("src", 0), ServiceCount: 1, ServiceMean: 0.001})
	reportWorkers(m, 0, 1, 2, 3)
	m.ReportTask(TaskReport{Task: taskID("sink", 0), ServiceCount: 1, ServiceMean: 0.001})
	s := MergePartials(map[string]int{"src": 1, "work": 2, "sink": 1}, m.PartialSummary())
	if got := s.SequenceCoverage(seq); got != 1.0 {
		t.Errorf("coverage with over-reporting: got %v, want clamped to 1", got)
	}
}

// TestAgedOutBoundary pins down the eviction boundary: a history survives
// exactly EvictAfter idle intervals and is dropped on the next one, and
// the AgedOut counters record the eviction.
func TestAgedOutBoundary(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 5, EvictAfter: 2})
	m.ReportTask(TaskReport{Task: taskID("v", 0), ServiceCount: 1, ServiceMean: 0.01})
	ch := model.ChannelID{Edge: model.EdgeKey{Source: "u", Target: "v"}}
	m.ReportChannel(ChannelReport{Channel: ch, LatencyCount: 1, LatencyMean: 0.01})

	// EvictAfter = 2: the histories survive intervals 1 and 2...
	for i := 0; i < 2; i++ {
		_ = m.PartialSummary()
		if len(m.tasks.list) != 1 || len(m.channels.list) != 1 {
			t.Fatalf("interval %d: history evicted too early", i+1)
		}
		if at, ac := m.tasks.agedOut, m.channels.agedOut; at != 0 || ac != 0 {
			t.Fatalf("interval %d: AgedOut=%d/%d before the boundary", i+1, at, ac)
		}
	}
	// ...and are evicted on interval 3.
	_ = m.PartialSummary()
	if len(m.tasks.list) != 0 || len(m.channels.list) != 0 {
		t.Error("history survived past EvictAfter")
	}
	if at, ac := m.tasks.agedOut, m.channels.agedOut; at != 1 || ac != 1 {
		t.Errorf("AgedOut: got %d/%d, want 1/1", at, ac)
	}

	// A report inside the window resets the idle counter.
	m.ReportTask(TaskReport{Task: taskID("v", 1), ServiceCount: 1, ServiceMean: 0.01})
	_ = m.PartialSummary()
	m.ReportTask(TaskReport{Task: taskID("v", 1), ServiceCount: 1, ServiceMean: 0.01})
	for i := 0; i < 2; i++ {
		_ = m.PartialSummary()
	}
	if len(m.tasks.list) != 1 {
		t.Error("report inside the window did not reset the idle counter")
	}
	if at, _ := m.tasks.agedOut, m.channels.agedOut; at != 1 {
		t.Errorf("AgedOut after reset: got %d, want still 1", at)
	}
}
