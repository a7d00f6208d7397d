package model

import (
	"strings"
	"testing"
)

func mustGraph(t *testing.T, build func(g *JobGraph) error) *JobGraph {
	t.Helper()
	g := NewJobGraph()
	if err := build(g); err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

// diamond returns a source -> {a, b} -> sink diamond graph.
func diamond(t *testing.T) *JobGraph {
	t.Helper()
	return mustGraph(t, func(g *JobGraph) error {
		for _, v := range []JobVertex{
			{Name: "source", Parallelism: 2},
			{Name: "a", Parallelism: 3, MinParallelism: 1, MaxParallelism: 8},
			{Name: "b", Parallelism: 1},
			{Name: "sink", Parallelism: 2},
		} {
			if err := g.AddVertex(v); err != nil {
				return err
			}
		}
		for _, e := range [][2]string{{"source", "a"}, {"source", "b"}, {"a", "sink"}, {"b", "sink"}} {
			if err := g.AddEdge(e[0], e[1], PatternRoundRobin); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestJobGraphAddVertex(t *testing.T) {
	tests := []struct {
		name    string
		vertex  JobVertex
		wantErr string
	}{
		{name: "valid", vertex: JobVertex{Name: "v", Parallelism: 2, MinParallelism: 1, MaxParallelism: 4}},
		{name: "empty name", vertex: JobVertex{Parallelism: 1}, wantErr: "must not be empty"},
		{name: "min above max", vertex: JobVertex{Name: "v", Parallelism: 3, MinParallelism: 5, MaxParallelism: 3}, wantErr: "min parallelism"},
		{name: "parallelism above max", vertex: JobVertex{Name: "v", Parallelism: 9, MinParallelism: 1, MaxParallelism: 4}, wantErr: "outside"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewJobGraph()
			err := g.AddVertex(tt.vertex)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("AddVertex: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("AddVertex: got error %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestJobGraphVertexDefaults(t *testing.T) {
	g := NewJobGraph()
	if err := g.AddVertex(JobVertex{Name: "v"}); err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	v := g.Vertex("v")
	if v.Parallelism != 1 || v.MinParallelism != 1 || v.MaxParallelism != 1 {
		t.Errorf("defaults: got p=%d min=%d max=%d, want all 1", v.Parallelism, v.MinParallelism, v.MaxParallelism)
	}
	if v.LatencyMode != LatencyReadReady {
		t.Errorf("default latency mode: got %v, want read-ready", v.LatencyMode)
	}
}

func TestJobGraphDuplicateVertex(t *testing.T) {
	g := NewJobGraph()
	if err := g.AddVertex(JobVertex{Name: "v", Parallelism: 1}); err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	if err := g.AddVertex(JobVertex{Name: "v", Parallelism: 1}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
}

func TestJobGraphAddEdgeErrors(t *testing.T) {
	g := mustGraph(t, func(g *JobGraph) error {
		if err := g.AddVertex(JobVertex{Name: "a", Parallelism: 1}); err != nil {
			return err
		}
		return g.AddVertex(JobVertex{Name: "b", Parallelism: 1})
	})
	if err := g.AddEdge("a", "missing", PatternRoundRobin); err == nil {
		t.Error("edge to unknown vertex accepted")
	}
	if err := g.AddEdge("a", "a", PatternRoundRobin); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge("a", "b", PatternRoundRobin); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge("a", "b", PatternBroadcast); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatalf("TopologicalOrder: %v", err)
	}
	pos := make(map[string]int, len(order))
	for i, name := range order {
		pos[name] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Source] >= pos[e.Target] {
			t.Errorf("edge %s violates topological order %v", e.Key(), order)
		}
	}
}

func TestTopologicalOrderCycle(t *testing.T) {
	g := mustGraph(t, func(g *JobGraph) error {
		for _, n := range []string{"a", "b", "c"} {
			if err := g.AddVertex(JobVertex{Name: n, Parallelism: 1}); err != nil {
				return err
			}
		}
		for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
			if err := g.AddEdge(e[0], e[1], PatternRoundRobin); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := g.TopologicalOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted cyclic graph")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := mustGraph(t, func(g *JobGraph) error {
		for _, n := range []string{"a", "b", "lonely"} {
			if err := g.AddVertex(JobVertex{Name: n, Parallelism: 1}); err != nil {
				return err
			}
		}
		return g.AddEdge("a", "b", PatternRoundRobin)
	})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted graph with disconnected vertex")
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := diamond(t)
	for _, v := range g.Vertices() {
		if src := len(g.InEdges(v.Name)) == 0; src != (v.Name == "source") {
			t.Errorf("%s: no inbound edges = %v, want only source", v.Name, src)
		}
		if sink := len(g.OutEdges(v.Name)) == 0; sink != (v.Name == "sink") {
			t.Errorf("%s: no outbound edges = %v, want only sink", v.Name, sink)
		}
	}
}

func TestWiringPatternString(t *testing.T) {
	tests := []struct {
		pattern WiringPattern
		want    string
	}{
		{PatternRoundRobin, "round-robin"},
		{PatternBroadcast, "broadcast"},
		{PatternKeyBased, "key-based"},
		{WiringPattern(42), "WiringPattern(42)"},
	}
	for _, tt := range tests {
		if got := tt.pattern.String(); got != tt.want {
			t.Errorf("String(%d): got %q, want %q", int(tt.pattern), got, tt.want)
		}
	}
}

func TestLatencyModeString(t *testing.T) {
	if LatencyReadReady.String() != "read-ready" || LatencyReadWrite.String() != "read-write" {
		t.Error("latency mode names changed")
	}
	if got := LatencyMode(9).String(); got != "LatencyMode(9)" {
		t.Errorf("unknown mode: got %q", got)
	}
}

func TestClampParallelism(t *testing.T) {
	v := JobVertex{Name: "v", Parallelism: 4, MinParallelism: 2, MaxParallelism: 8}
	tests := []struct{ in, want int }{{1, 2}, {2, 2}, {5, 5}, {8, 8}, {100, 8}}
	for _, tt := range tests {
		if got := v.ClampParallelism(tt.in); got != tt.want {
			t.Errorf("ClampParallelism(%d): got %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestInOutEdges(t *testing.T) {
	g := diamond(t)
	if got := g.OutEdges("source"); len(got) != 2 {
		t.Errorf("OutEdges(source): got %d edges, want 2", len(got))
	}
	if got := g.InEdges("sink"); len(got) != 2 {
		t.Errorf("InEdges(sink): got %d edges, want 2", len(got))
	}
	if got := g.InEdges("source"); len(got) != 0 {
		t.Errorf("InEdges(source): got %d edges, want 0", len(got))
	}
}
