package model

import (
	"strings"
	"testing"
	"time"
)

// chain returns a linear src -> mid -> sink graph.
func chain(t *testing.T) *JobGraph {
	t.Helper()
	return mustGraph(t, func(g *JobGraph) error {
		for _, v := range []JobVertex{
			{Name: "src", Parallelism: 2},
			{Name: "mid", Parallelism: 3, MinParallelism: 1, MaxParallelism: 10},
			{Name: "sink", Parallelism: 2},
		} {
			if err := g.AddVertex(v); err != nil {
				return err
			}
		}
		if err := g.AddEdge("src", "mid", PatternRoundRobin); err != nil {
			return err
		}
		return g.AddEdge("mid", "sink", PatternRoundRobin)
	})
}

func TestParseSequence(t *testing.T) {
	g := chain(t)
	tests := []struct {
		name     string
		elements []string
		wantErr  string
	}{
		{name: "edge-vertex-edge", elements: []string{"src->mid", "mid", "mid->sink"}},
		{name: "vertex only", elements: []string{"mid"}},
		{name: "edge only", elements: []string{"src->mid"}},
		{name: "full path", elements: []string{"src", "src->mid", "mid", "mid->sink", "sink"}},
		{name: "empty", elements: nil, wantErr: "empty sequence"},
		{name: "unknown vertex", elements: []string{"ghost"}, wantErr: "unknown vertex"},
		{name: "unknown edge", elements: []string{"src->sink"}, wantErr: "unknown edge"},
		{name: "not alternating", elements: []string{"src", "mid"}, wantErr: "do not alternate"},
		{name: "disconnected pair", elements: []string{"src->mid", "sink"}, wantErr: "does not enter"},
		{name: "edge does not leave", elements: []string{"mid", "src->mid"}, wantErr: "does not leave"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			seq, err := ParseSequence(g, tt.elements...)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("got error %v, want containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSequence: %v", err)
			}
			if got := len(seq.elements); got != len(tt.elements) {
				t.Errorf("element count: got %d, want %d", got, len(tt.elements))
			}
		})
	}
}

func TestSequenceVerticesAndEdges(t *testing.T) {
	g := chain(t)
	seq, err := ParseSequence(g, "src->mid", "mid", "mid->sink", "sink")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	vs := seq.Vertices()
	if len(vs) != 2 || vs[0] != "mid" || vs[1] != "sink" {
		t.Errorf("Vertices: got %v, want [mid sink]", vs)
	}
	es := seq.Edges()
	if len(es) != 2 || es[0].Source != "src" || es[1].Target != "sink" {
		t.Errorf("Edges: got %v", es)
	}
}

func TestIngoingEdge(t *testing.T) {
	g := chain(t)
	seq, err := ParseSequence(g, "src->mid", "mid", "mid->sink", "sink")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	edge, ok := seq.IngoingEdge("mid")
	if !ok || edge.Source != "src" || edge.Target != "mid" {
		t.Errorf("IngoingEdge(mid): got %v ok=%v", edge, ok)
	}
	edge, ok = seq.IngoingEdge("sink")
	if !ok || edge.Source != "mid" {
		t.Errorf("IngoingEdge(sink): got %v ok=%v", edge, ok)
	}
	// A leading vertex has no ingoing edge within the sequence.
	seq2, err := ParseSequence(g, "src", "src->mid", "mid")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	if _, ok := seq2.IngoingEdge("src"); ok {
		t.Error("IngoingEdge(src): leading vertex must have no ingoing edge")
	}
}

func TestConstraintValidate(t *testing.T) {
	g := chain(t)
	seq, err := ParseSequence(g, "src->mid", "mid", "mid->sink")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	tests := []struct {
		name    string
		c       Constraint
		wantErr bool
	}{
		{name: "valid", c: Constraint{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second}},
		{name: "no sequence", c: Constraint{Name: "c", Bound: time.Millisecond, Window: time.Second}, wantErr: true},
		{name: "zero bound", c: Constraint{Name: "c", Sequence: seq, Window: time.Second}, wantErr: true},
		{name: "zero window", c: Constraint{Name: "c", Sequence: seq, Bound: time.Millisecond}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate: err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestSequenceString(t *testing.T) {
	g := chain(t)
	seq, err := ParseSequence(g, "src->mid", "mid")
	if err != nil {
		t.Fatalf("ParseSequence: %v", err)
	}
	want := "(src->mid, mid)"
	if got := seq.String(); got != want {
		t.Errorf("String: got %q, want %q", got, want)
	}
}
