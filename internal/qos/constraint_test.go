package qos

import (
	"testing"
	"time"

	"nephelix/internal/model"
)

// pipeline builds src -> work -> sink and a constraint over
// (src->work, work, work->sink).
func pipeline(t *testing.T, bound time.Duration) (*model.JobGraph, *model.Constraint) {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1},
		{Name: "work", Parallelism: 4, MinParallelism: 1, MaxParallelism: 16},
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
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	c := &model.Constraint{Name: "c", Sequence: seq, Bound: bound, Window: 10 * time.Second}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, c
}

func summaryFor(taskLat, chanLat, batchLat float64) *Summary {
	s := NewSummary()
	s.Vertices["work"] = VertexStats{TaskLatency: taskLat, ServiceTimeMean: taskLat, InterarrivalMean: taskLat * 2, Parallelism: 4}
	s.Edges[model.EdgeKey{Source: "src", Target: "work"}] = EdgeStats{ChannelLatency: chanLat, OutputBatchLatency: batchLat}
	s.Edges[model.EdgeKey{Source: "work", Target: "sink"}] = EdgeStats{ChannelLatency: chanLat, OutputBatchLatency: batchLat}
	return s
}

func TestEstimateSequenceLatency(t *testing.T) {
	_, c := pipeline(t, 20*time.Millisecond)
	s := summaryFor(0.002, 0.006, 0.004)
	est, ok := EstimateSequenceLatency(s, c.Sequence)
	if !ok {
		t.Fatal("summary should cover sequence")
	}
	if !almostEqual(est.TaskLatency, 0.002, 1e-12) {
		t.Errorf("task latency: got %v", est.TaskLatency)
	}
	if !almostEqual(est.QueueWait, 0.004, 1e-12) { // 2 edges × (6−4) ms
		t.Errorf("queue wait: got %v", est.QueueWait)
	}
	if !almostEqual(est.BatchLatency, 0.008, 1e-12) { // 2 edges × 4 ms
		t.Errorf("batch latency: got %v", est.BatchLatency)
	}
	if !almostEqual(est.Total(), 0.014, 1e-12) {
		t.Errorf("total: got %v", est.Total())
	}
}

func TestEstimateSequenceLatencyUncovered(t *testing.T) {
	_, c := pipeline(t, 20*time.Millisecond)
	if _, ok := EstimateSequenceLatency(NewSummary(), c.Sequence); ok {
		t.Error("empty summary must not produce estimate")
	}
}

func TestCheckConstraint(t *testing.T) {
	_, c := pipeline(t, 10*time.Millisecond)
	tests := []struct {
		name     string
		summary  *Summary
		violated bool
	}{
		{name: "within bound", summary: summaryFor(0.001, 0.002, 0.001), violated: false},
		{name: "violated", summary: summaryFor(0.004, 0.006, 0.001), violated: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			est, ok := EstimateSequenceLatency(tt.summary, c.Sequence)
			if !ok {
				t.Fatal("constraint not covered")
			}
			if violated := est.Total() > c.Bound.Seconds(); violated != tt.violated {
				t.Errorf("violated: got %v (total %v), want %v", violated, est.Total(), tt.violated)
			}
		})
	}
}

func TestQueueWaitLimit(t *testing.T) {
	_, c := pipeline(t, 20*time.Millisecond)
	s := summaryFor(0.005, 0, 0) // Σ l_jv = 5 ms
	p := DefaultBatchingPolicy()
	// Ŵ = 0.2 × (20 − 5) ms = 3 ms
	if got := p.QueueWaitLimit(s, c); !almostEqual(got, 0.003, 1e-12) {
		t.Errorf("QueueWaitLimit: got %v, want 0.003", got)
	}
	// Task latency above the bound floors the budget at zero.
	s = summaryFor(0.050, 0, 0)
	if got := p.QueueWaitLimit(s, c); got != 0 {
		t.Errorf("exhausted budget: got %v, want 0", got)
	}
}
