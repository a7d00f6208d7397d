package cluster

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nephelix/internal/model"
)

func task(vertex string, idx int) model.TaskID {
	return model.TaskID{Vertex: vertex, Index: idx}
}

func TestResourceManagerLeaseRelease(t *testing.T) {
	rm, err := NewResourceManager(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rm.poolSize*rm.slotsPerNode != 8 || rm.poolSize != 2 {
		t.Errorf("capacity/pool: %d/%d", rm.poolSize*rm.slotsPerNode, rm.poolSize)
	}
	a, err := rm.Lease()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rm.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Lease(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("third lease: got %v, want ErrPoolExhausted", err)
	}
	if rm.Leased() != 2 {
		t.Errorf("Leased: got %d, want 2", rm.Leased())
	}
	if err := rm.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if rm.Leased() != 1 {
		t.Errorf("after release: got %d leased, want 1", rm.Leased())
	}
	b.used = 1
	if err := rm.Release(b.ID); err == nil {
		t.Error("releasing node with occupied slots must error")
	}
	if err := rm.Release("nonexistent"); err == nil {
		t.Error("releasing unknown node must error")
	}
}

func TestNewResourceManagerValidation(t *testing.T) {
	if _, err := NewResourceManager(0, 4); err == nil {
		t.Error("zero pool size accepted")
	}
	if _, err := NewResourceManager(4, 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestSchedulerFillFirst(t *testing.T) {
	rm, err := NewResourceManager(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	// Five tasks: the first four fill node 1, the fifth leases node 2.
	var nodes []string
	for i := 0; i < 5; i++ {
		id, err := s.Place(task("v", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, id)
	}
	for i := 0; i < 4; i++ {
		if nodes[i] != nodes[0] {
			t.Errorf("task %d on %s, want packed onto %s", i, nodes[i], nodes[0])
		}
	}
	if nodes[4] == nodes[0] {
		t.Error("fifth task must spill to a new node")
	}
	if rm.Leased() != 2 {
		t.Errorf("leased nodes: got %d, want 2", rm.Leased())
	}
}

func TestSchedulerUnplaceReleasesEmptyNodes(t *testing.T) {
	rm, err := NewResourceManager(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	for i := 0; i < 4; i++ {
		if _, err := s.Place(task("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rm.Leased() != 2 {
		t.Fatalf("leased: got %d, want 2", rm.Leased())
	}
	// Remove the two tasks of the second node.
	for i := 2; i < 4; i++ {
		if err := s.Unplace(task("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rm.Leased() != 1 {
		t.Errorf("empty node not released: %d leased", rm.Leased())
	}
	if len(s.placements) != 2 {
		t.Errorf("placed tasks: got %d, want 2", len(s.placements))
	}
}

func TestSchedulerErrors(t *testing.T) {
	rm, err := NewResourceManager(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	if _, err := s.Place(task("v", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(task("v", 0)); err == nil {
		t.Error("double placement accepted")
	}
	if _, err := s.Place(task("v", 1)); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("pool exhaustion: got %v", err)
	}
	if err := s.Unplace(task("v", 9)); err == nil {
		t.Error("unplacing unknown task accepted")
	}
}

func TestSchedulerReusesFreedSlots(t *testing.T) {
	rm, err := NewResourceManager(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	for i := 0; i < 4; i++ {
		if _, err := s.Place(task("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Unplace(task("v", 1)); err != nil {
		t.Fatal(err)
	}
	id, err := s.Place(task("w", 0))
	if err != nil {
		t.Fatal(err)
	}
	first := s.placements[task("v", 0)]
	if id != first {
		t.Errorf("freed slot not reused: placed on %s, want %s", id, first)
	}
}

func TestTasksOnNodeSorted(t *testing.T) {
	rm, err := NewResourceManager(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	for _, tk := range []model.TaskID{task("b", 1), task("a", 2), task("a", 0)} {
		if _, err := s.Place(tk); err != nil {
			t.Fatal(err)
		}
	}
	nodes := s.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes: %v", nodes)
	}
	tasks := s.TasksOnNode(nodes[0])
	if len(tasks) != 3 || tasks[0] != task("a", 0) || tasks[1] != task("a", 2) || tasks[2] != task("b", 1) {
		t.Errorf("TasksOnNode order: %v", tasks)
	}
}

func TestUsageMeter(t *testing.T) {
	var m UsageMeter
	m.Advance(0, 10, 3)   // establishes t0; nothing integrated yet
	m.Advance(60, 10, 3)  // 60 s × 10 tasks, 3 nodes
	m.Advance(120, 20, 5) // 60 s × 20 tasks, 5 nodes
	wantTaskSeconds := 60.0*10 + 60.0*20
	if m.TaskSeconds() != wantTaskSeconds {
		t.Errorf("TaskSeconds: got %v, want %v", m.TaskSeconds(), wantTaskSeconds)
	}
	if !almostEqual(m.TaskHours(), wantTaskSeconds/3600, 1e-12) {
		t.Errorf("TaskHours: got %v", m.TaskHours())
	}
	if !almostEqual(m.NodeHours(), (60.0*3+60.0*5)/3600, 1e-12) {
		t.Errorf("NodeHours: got %v", m.NodeHours())
	}
	// Time going backwards is ignored.
	before := m.TaskSeconds()
	m.Advance(100, 99, 99)
	if m.TaskSeconds() != before {
		t.Error("backwards time integrated")
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSchedulerSlotInvariant is a property test: after any sequence of
// placements and removals, the number of placed tasks equals the sum of
// used slots, and no node exceeds its slot count.
func TestSchedulerSlotInvariant(t *testing.T) {
	prop := func(ops []bool) bool {
		rm, err := NewResourceManager(8, 3)
		if err != nil {
			return false
		}
		s := NewScheduler(rm)
		placed := make([]model.TaskID, 0)
		next := 0
		for _, place := range ops {
			if place || len(placed) == 0 {
				tk := task("v", next)
				next++
				if _, err := s.Place(tk); err != nil {
					if errors.Is(err, ErrPoolExhausted) {
						continue
					}
					return false
				}
				placed = append(placed, tk)
			} else {
				tk := placed[len(placed)-1]
				placed = placed[:len(placed)-1]
				if err := s.Unplace(tk); err != nil {
					return false
				}
			}
		}
		used := 0
		for _, id := range s.Nodes() {
			n := rm.leased[id]
			if n.used < 0 || n.used > n.Slots {
				return false
			}
			used += n.used
		}
		return used == len(s.placements) && len(s.placements) == len(placed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
