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
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.010, 1.0, 100)
	p.vertex("v").addTask(0.003, 0.004, 0.7, 0.020, 1.2, 50)
	p.edge(model.EdgeKey{Source: "u", Target: "v"}).addChannel(0.010, 0.004, 10)
	p.edge(model.EdgeKey{Source: "u", Target: "v"}).addChannel(0.020, 0.006, 20)

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
	if v.Parallelism != 2 || v.Samples != 150 {
		t.Errorf("parallelism/samples: got %d/%d, want 2/150", v.Parallelism, v.Samples)
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
	mk := func(tasks [][6]float64) *PartialSummary {
		p := NewPartialSummary()
		for _, v := range tasks {
			p.vertex("v").addTask(v[0], v[1], v[2], v[3], v[4], int64(v[5]))
		}
		return p
	}
	all := mk([][6]float64{
		{0.001, 0.002, 0.5, 0.01, 1.0, 10},
		{0.002, 0.003, 0.6, 0.02, 1.1, 20},
		{0.003, 0.004, 0.7, 0.03, 1.2, 30},
	})
	a := mk([][6]float64{{0.001, 0.002, 0.5, 0.01, 1.0, 10}})
	b := mk([][6]float64{
		{0.002, 0.003, 0.6, 0.02, 1.1, 20},
		{0.003, 0.004, 0.7, 0.03, 1.2, 30},
	})
	a.Merge(b)
	par := map[string]int{"v": 3}
	sAll, sMerged := all.Finalize(par), a.Finalize(par)
	va, vm := sAll.Vertices["v"], sMerged.Vertices["v"]
	if !almostEqual(va.TaskLatency, vm.TaskLatency, 1e-12) ||
		!almostEqual(va.ServiceTimeMean, vm.ServiceTimeMean, 1e-12) ||
		!almostEqual(va.InterarrivalCV, vm.InterarrivalCV, 1e-12) ||
		va.Samples != vm.Samples {
		t.Errorf("merged != direct: %+v vs %+v", vm, va)
	}
}

func TestFinalizeParallelismFallback(t *testing.T) {
	p := NewPartialSummary()
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.01, 1.0, 1)
	p.vertex("v").addTask(0.001, 0.002, 0.5, 0.01, 1.0, 1)
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
