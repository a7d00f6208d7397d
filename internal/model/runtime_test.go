package model

import "testing"

func TestDiffParallelism(t *testing.T) {
	current := map[string]int{"a": 2, "b": 5, "c": 1}
	desired := map[string]int{"a": 4, "b": 5, "c": 1, "ghost": 9}
	actions := DiffParallelism(current, desired)
	if len(actions) != 1 {
		t.Fatalf("DiffParallelism: got %d actions, want 1: %v", len(actions), actions)
	}
	a := actions[0]
	if a.Vertex != "a" || a.From != 2 || a.To != 4 || !a.IsScaleUp() || a.Delta() != 2 {
		t.Errorf("unexpected action %+v", a)
	}
}

func TestDiffParallelismDeterministicOrder(t *testing.T) {
	current := map[string]int{"x": 1, "y": 1, "z": 1}
	desired := map[string]int{"z": 2, "x": 2, "y": 2}
	for i := 0; i < 10; i++ {
		actions := DiffParallelism(current, desired)
		if len(actions) != 3 || actions[0].Vertex != "x" || actions[1].Vertex != "y" || actions[2].Vertex != "z" {
			t.Fatalf("actions not sorted: %v", actions)
		}
	}
}
