package qos

import (
	"reflect"
	"sort"
	"testing"

	"nephelix/internal/model"
)

func taskID(vertex string, idx int) model.TaskID {
	return model.TaskID{Vertex: vertex, Index: idx}
}

func TestTaskReporterIntervalFlow(t *testing.T) {
	r := NewTaskReporter(taskID("v", 0))
	r.RecordArrival(1.000)
	r.RecordArrival(1.010) // interarrival 10 ms
	r.RecordArrival(1.030) // interarrival 20 ms
	r.RecordService(0.002)
	r.RecordService(0.004)
	r.RecordTaskLatency(0.002)

	rep := r.Flush()
	if rep.InterarrivalCount != 2 || !almostEqual(rep.InterarrivalMean, 0.015, 1e-12) {
		t.Errorf("interarrival: count=%d mean=%v", rep.InterarrivalCount, rep.InterarrivalMean)
	}
	if rep.ServiceCount != 2 || !almostEqual(rep.ServiceMean, 0.003, 1e-12) {
		t.Errorf("service: count=%d mean=%v", rep.ServiceCount, rep.ServiceMean)
	}
	if rep.TaskLatencyCount != 1 {
		t.Errorf("task latency count: got %d, want 1", rep.TaskLatencyCount)
	}

	// Interarrival chain survives the flush.
	r.RecordArrival(1.050)
	rep2 := r.Flush()
	if rep2.InterarrivalCount != 1 || !almostEqual(rep2.InterarrivalMean, 0.020, 1e-12) {
		t.Errorf("post-flush interarrival: count=%d mean=%v", rep2.InterarrivalCount, rep2.InterarrivalMean)
	}
}

func TestTaskReporterIgnoresNegative(t *testing.T) {
	r := NewTaskReporter(taskID("v", 0))
	r.RecordService(-1)
	r.RecordTaskLatency(-0.5)
	r.RecordArrival(5)
	r.RecordArrival(4) // time went backwards; ignored
	rep := r.Flush()
	if !rep.Empty() {
		t.Errorf("negative measurements must be dropped: %+v", rep)
	}
}

func TestChannelReporter(t *testing.T) {
	ch := model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "b"}}
	r := NewChannelReporter(ch)
	r.RecordTransfer(0.010, 0.004)
	r.RecordTransfer(0.020, 0.006)
	rep := r.Flush()
	if rep.LatencyCount != 2 || !almostEqual(rep.LatencyMean, 0.015, 1e-12) {
		t.Errorf("latency: count=%d mean=%v", rep.LatencyCount, rep.LatencyMean)
	}
	if rep.BatchLatencyCount != 2 || !almostEqual(rep.BatchLatencyMean, 0.005, 1e-12) {
		t.Errorf("batch latency: count=%d mean=%v", rep.BatchLatencyCount, rep.BatchLatencyMean)
	}
	if rep = r.Flush(); !rep.Empty() {
		t.Error("second flush must be empty")
	}
}

func TestManagerHistoryWindow(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 2, EvictAfter: 10})
	id := taskID("v", 0)
	// Three reports; only the newest two must contribute.
	for i, svc := range []float64{0.010, 0.020, 0.030} {
		m.ReportTask(TaskReport{Task: id, ServiceCount: 1, ServiceMean: svc, ServiceCV: float64(i)})
	}
	p := m.PartialSummary()
	s := p.Finalize(map[string]int{"v": 1})
	got := s.Vertices["v"].ServiceTimeMean
	if !almostEqual(got, 0.025, 1e-12) {
		t.Errorf("history window: service mean got %v, want 0.025 (mean of last two)", got)
	}
}

func TestManagerEviction(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 5, EvictAfter: 2})
	m.ReportTask(TaskReport{Task: taskID("v", 0), ServiceCount: 1, ServiceMean: 0.01})
	if len(m.tasks.list) != 1 {
		t.Fatalf("tracked tasks: got %d, want 1", len(m.tasks.list))
	}
	// Three adjustment intervals without reports evict the task.
	for i := 0; i < 3; i++ {
		_ = m.PartialSummary()
	}
	if len(m.tasks.list) != 0 {
		t.Errorf("idle task not evicted: %d tracked", len(m.tasks.list))
	}
}

func TestManagerIgnoresEmptyReports(t *testing.T) {
	m := NewManager(DefaultManagerConfig())
	m.ReportTask(TaskReport{Task: taskID("v", 0)})
	m.ReportChannel(ChannelReport{Channel: model.ChannelID{}})
	if len(m.tasks.list) != 0 || len(m.channels.list) != 0 {
		t.Error("empty reports must not create history")
	}
}

func TestManagerForget(t *testing.T) {
	m := NewManager(DefaultManagerConfig())
	id := taskID("v", 3)
	m.ReportTask(TaskReport{Task: id, ServiceCount: 1, ServiceMean: 0.01})
	m.Forget(id)
	if len(m.tasks.list) != 0 {
		t.Error("Forget did not drop task history")
	}
}

func TestMergePartialsAcrossManagers(t *testing.T) {
	// Manager A sees task v[0], manager B sees v[1]; the global summary
	// must average both.
	a := NewManager(DefaultManagerConfig())
	b := NewManager(DefaultManagerConfig())
	a.ReportTask(TaskReport{Task: taskID("v", 0), ServiceCount: 10, ServiceMean: 0.002, InterarrivalCount: 10, InterarrivalMean: 0.008})
	b.ReportTask(TaskReport{Task: taskID("v", 1), ServiceCount: 10, ServiceMean: 0.004, InterarrivalCount: 10, InterarrivalMean: 0.012})
	ch := model.ChannelID{Edge: model.EdgeKey{Source: "u", Target: "v"}, Producer: 0, Consumer: 1}
	b.ReportChannel(ChannelReport{Channel: ch, LatencyCount: 5, LatencyMean: 0.010, BatchLatencyCount: 5, BatchLatencyMean: 0.002})

	global := MergePartials(map[string]int{"v": 2}, a.PartialSummary(), b.PartialSummary(), nil)
	v, ok := global.Vertex("v")
	if !ok {
		t.Fatal("vertex missing from global summary")
	}
	if !almostEqual(v.ServiceTimeMean, 0.003, 1e-12) || !almostEqual(v.InterarrivalMean, 0.010, 1e-12) {
		t.Errorf("global averages: %+v", v)
	}
	if v.Parallelism != 2 {
		t.Errorf("parallelism: got %d, want 2", v.Parallelism)
	}
	e, ok := global.Edge(model.EdgeKey{Source: "u", Target: "v"})
	if !ok || !almostEqual(e.QueueWait(), 0.008, 1e-12) {
		t.Errorf("edge stats: %+v ok=%v", e, ok)
	}
}

// TestPartialSummaryChannelOrder pins the iteration order PartialSummary
// accumulates channels in: the order of ChannelID.String(), in which
// "a[10]->b[2]" sorts before "a[2]->b[10]". Floating-point sums — and so
// every simulator figure — depend on it.
func TestPartialSummaryChannelOrder(t *testing.T) {
	m := NewManager(DefaultManagerConfig())
	var want []string
	for _, pc := range [][2]int{{2, 10}, {10, 2}, {1, 1}, {10, 10}, {9, 0}, {100, 3}} {
		id := model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "b"}, Producer: pc[0], Consumer: pc[1]}
		m.ReportChannel(ChannelReport{Channel: id, LatencyCount: 1, LatencyMean: 0.001})
		want = append(want, id.String())
	}
	other := model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "B"}, Producer: 3, Consumer: 3}
	m.ReportChannel(ChannelReport{Channel: other, LatencyCount: 1, LatencyMean: 0.001})
	want = append(want, other.String())
	sort.Strings(want)

	var got []string
	for _, h := range m.channels.list {
		got = append(got, h.id.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("channel order\n got %v\nwant %v", got, want)
	}
}

// TestTaskReporterWeightedRecords checks the N-forms against n single
// calls: same counts, same means, same interarrival chain.
func TestTaskReporterWeightedRecords(t *testing.T) {
	one, grouped := NewTaskReporter(taskID("v", 0)), NewTaskReporter(taskID("v", 0))
	one.TrackQueueWait()
	grouped.TrackQueueWait()
	for _, r := range []*TaskReporter{one, grouped} {
		r.RecordArrival(1.0)
		r.RecordService(0.5)
	}
	const n, first, gap, d = 7, 2.0, 0.25, 0.003
	for i := 0; i < n; i++ {
		one.RecordArrival(first + gap*float64(i))
		one.RecordService(d)
		one.RecordTaskLatency(d)
		one.RecordQueueWaitN(d, 1)
	}
	grouped.RecordArrivalN(first, gap, n)
	grouped.RecordServiceN(d, n)
	grouped.RecordTaskLatencyN(d, n)
	grouped.RecordQueueWaitN(d, n)
	grouped.RecordArrivalN(9, 1, 0) // no-op
	grouped.RecordServiceN(9, 0)
	grouped.RecordTaskLatencyN(9, 0)
	grouped.RecordQueueWaitN(9, 0)
	for _, r := range []*TaskReporter{one, grouped} {
		r.RecordArrival(4.0) // the chain continues from the group's last arrival
	}
	a, b := one.Flush(), grouped.Flush()
	if a.QueueWait.Count() != n || b.QueueWait.Count() != n {
		t.Errorf("queue-wait window count: single %d, weighted %d, want %d", a.QueueWait.Count(), b.QueueWait.Count(), n)
	}
	if a.ServiceCount != b.ServiceCount || a.InterarrivalCount != b.InterarrivalCount || a.TaskLatencyCount != b.TaskLatencyCount {
		t.Fatalf("counts differ: single %+v, weighted %+v", a, b)
	}
	for _, p := range [][2]float64{
		{a.ServiceMean, b.ServiceMean}, {a.ServiceCV, b.ServiceCV},
		{a.InterarrivalMean, b.InterarrivalMean}, {a.InterarrivalCV, b.InterarrivalCV},
		{a.TaskLatencyMean, b.TaskLatencyMean},
	} {
		if !almostEqual(p[0], p[1], 1e-12) {
			t.Errorf("single %v != weighted %v\nsingle   %+v\nweighted %+v", p[0], p[1], a, b)
		}
	}
}

// TestTaskReporterSourceRoundsSubMicrosecond is the source lane's shape: a
// saturated shard books one burst per pacing round, rounds a fraction of a
// microsecond apart. With arrival times counted from the execution's start
// every round is a distinct, later instant and evenly paced rounds read as
// evenly paced (c_A ≈ 0); as float64 Unix seconds, which resolve 238 ns,
// the same rounds collapse onto a 0/238/477 ns grid and read as bursty.
func TestTaskReporterSourceRoundsSubMicrosecond(t *testing.T) {
	const rounds, spacing = 2000, 150e-9
	run := func(base float64) TaskReport {
		r := NewTaskReporter(taskID("src", 0))
		for k := 0; k < rounds; k++ {
			r.RecordArrivalN(base+float64(k)*spacing, 0, 1)
		}
		return r.Flush()
	}
	rep := run(3600) // an hour into the execution
	if rep.InterarrivalCount != rounds-1 {
		t.Fatalf("%d interarrival samples, want %d: an arrival went backwards", rep.InterarrivalCount, rounds-1)
	}
	if !almostEqual(rep.InterarrivalMean, spacing, 1e-3*spacing) || rep.InterarrivalCV > 0.01 {
		t.Errorf("execution base: interarrival mean %g CV %g, want %g and ≈ 0", rep.InterarrivalMean, rep.InterarrivalCV, spacing)
	}
	if unix := run(1.79e9); unix.InterarrivalCV < 0.5 {
		t.Errorf("Unix base: interarrival CV %g, expected the 238 ns grid to read as ≥ 0.5", unix.InterarrivalCV)
	}
}
