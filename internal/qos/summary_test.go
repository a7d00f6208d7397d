package qos

import (
	"math"
	"testing"

	"nephelix/internal/model"
)

func TestVertexStatsDerived(t *testing.T) {
	s := VertexStats{
		ServiceTimeMean:  0.002, // 2 ms
		InterarrivalMean: 0.004, // 4 ms => 250 items/s
	}
	if got := s.ArrivalRate(); got != 250 {
		t.Errorf("ArrivalRate: got %v, want 250", got)
	}
	if got := s.Utilization(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Utilization: got %v, want 0.5", got)
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestVertexStatsZeroValues(t *testing.T) {
	var s VertexStats
	if s.ArrivalRate() != 0 {
		t.Error("zero interarrival must give zero arrival rate")
	}
	if s.Utilization() != 0 {
		t.Error("zero stats must give zero utilization")
	}
}

func TestEdgeStatsQueueWait(t *testing.T) {
	e := EdgeStats{ChannelLatency: 0.010, OutputBatchLatency: 0.004}
	if got := e.QueueWait(); !almostEqual(got, 0.006, 1e-12) {
		t.Errorf("QueueWait: got %v, want 0.006", got)
	}
	// obl > l can transiently happen with sampling noise; wait floors at 0.
	e = EdgeStats{ChannelLatency: 0.002, OutputBatchLatency: 0.004}
	if got := e.QueueWait(); got != 0 {
		t.Errorf("QueueWait floor: got %v, want 0", got)
	}
}

func TestPartialSummaryFinalizeAverages(t *testing.T) {
	p := NewPartialSummary()
	// Two tasks of vertex "v" with service means 2 ms and 4 ms.
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.010, 1.0)
	p.vertex("v").addTask(0.003, 0.004, 0.7, 0.020, 1.2)
	p.edge(model.EdgeKey{Source: "u", Target: "v"}).addChannel(0.010, 0.004)
	p.edge(model.EdgeKey{Source: "u", Target: "v"}).addChannel(0.020, 0.006)

	s := p.Finalize(map[string]int{"v": 2})
	v, ok := s.Vertex("v")
	if !ok {
		t.Fatal("vertex v missing from summary")
	}
	if !almostEqual(v.TaskLatency, 0.002, 1e-12) ||
		!almostEqual(v.ServiceTimeMean, 0.003, 1e-12) ||
		!almostEqual(v.ServiceTimeCV, 0.6, 1e-12) ||
		!almostEqual(v.InterarrivalMean, 0.015, 1e-12) ||
		!almostEqual(v.InterarrivalCV, 1.1, 1e-12) {
		t.Errorf("vertex averages wrong: %+v", v)
	}
	if v.Parallelism != 2 {
		t.Errorf("parallelism: got %d, want 2", v.Parallelism)
	}
	e, ok := s.Edge(model.EdgeKey{Source: "u", Target: "v"})
	if !ok {
		t.Fatal("edge u->v missing from summary")
	}
	if !almostEqual(e.ChannelLatency, 0.015, 1e-12) || !almostEqual(e.OutputBatchLatency, 0.005, 1e-12) {
		t.Errorf("edge averages wrong: %+v", e)
	}
}

func TestPartialSummaryMergeEqualsDirect(t *testing.T) {
	// Building one partial from all tasks must equal merging two halves.
	mk := func(tasks [][5]float64) *PartialSummary {
		p := NewPartialSummary()
		for _, v := range tasks {
			p.vertex("v").addTask(v[0], v[1], v[2], v[3], v[4])
		}
		return p
	}
	all := mk([][5]float64{
		{0.001, 0.002, 0.5, 0.01, 1.0},
		{0.002, 0.003, 0.6, 0.02, 1.1},
		{0.003, 0.004, 0.7, 0.03, 1.2},
	})
	a := mk([][5]float64{{0.001, 0.002, 0.5, 0.01, 1.0}})
	b := mk([][5]float64{
		{0.002, 0.003, 0.6, 0.02, 1.1},
		{0.003, 0.004, 0.7, 0.03, 1.2},
	})
	a.Merge(b)
	par := map[string]int{"v": 3}
	sAll, sMerged := all.Finalize(par), a.Finalize(par)
	va, vm := sAll.Vertices["v"], sMerged.Vertices["v"]
	if !almostEqual(va.TaskLatency, vm.TaskLatency, 1e-12) ||
		!almostEqual(va.ServiceTimeMean, vm.ServiceTimeMean, 1e-12) ||
		!almostEqual(va.InterarrivalCV, vm.InterarrivalCV, 1e-12) {
		t.Errorf("merged != direct: %+v vs %+v", vm, va)
	}
}

func TestFinalizeParallelismFallback(t *testing.T) {
	p := NewPartialSummary()
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.01, 1.0)
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.01, 1.0)
	s := p.Finalize(nil)
	if got := s.Vertices["v"].Parallelism; got != 2 {
		t.Errorf("fallback parallelism: got %d, want observed task count 2", got)
	}
	p.parallelism["v"] = 7
	s = p.Finalize(nil)
	if got := s.Vertices["v"].Parallelism; got != 7 {
		t.Errorf("recorded parallelism: got %d, want 7", got)
	}
}

func TestSummaryCovers(t *testing.T) {
	g := model.NewJobGraph()
	for _, n := range []string{"a", "b"} {
		if err := g.AddVertex(model.JobVertex{Name: n, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "a->b", "b")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSummary()
	if s.Covers(seq) {
		t.Error("empty summary must not cover sequence")
	}
	s.Edges[model.EdgeKey{Source: "a", Target: "b"}] = EdgeStats{}
	if s.Covers(seq) {
		t.Error("summary without vertex must not cover sequence")
	}
	s.Vertices["b"] = VertexStats{}
	if !s.Covers(seq) {
		t.Error("complete summary must cover sequence")
	}
}

func testSummary() *Summary {
	s := NewSummary()
	s.Vertices["filter"] = VertexStats{
		TaskLatency:      0.012,
		ServiceTimeMean:  0.004,
		ServiceTimeCV:    0.5,
		InterarrivalMean: 0.008,
		InterarrivalCV:   1.25,
		Parallelism:      4,
		FreshTasks:       4,
	}
	s.Vertices["sink"] = VertexStats{
		TaskLatency:      0.001,
		ServiceTimeMean:  0.0005,
		InterarrivalMean: 0.002,
		Parallelism:      2,
		FreshTasks:       2,
	}
	s.Edges[model.EdgeKey{Source: "src", Target: "filter"}] = EdgeStats{
		ChannelLatency:     0.020,
		OutputBatchLatency: 0.015,
	}
	s.Edges[model.EdgeKey{Source: "filter", Target: "sink"}] = EdgeStats{
		ChannelLatency:     0.003,
		OutputBatchLatency: 0.001,
	}
	return s
}

// TestObsSummaryStringGolden pins the deterministic log rendering that
// the attribution report and the operator docs quote.
func TestObsSummaryStringGolden(t *testing.T) {
	want := "" +
		"filter: l=0.012000 S=0.004000 cS=0.500 A=0.008000 cA=1.250 p=4 rho=0.500\n" +
		"sink: l=0.001000 S=0.000500 cS=0.000 A=0.002000 cA=0.000 p=2 rho=0.250\n" +
		"filter->sink: l=0.003000 obl=0.001000 W=0.002000\n" +
		"src->filter: l=0.020000 obl=0.015000 W=0.005000\n"
	if got := testSummary().String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
}
