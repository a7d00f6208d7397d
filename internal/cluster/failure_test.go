package cluster

import (
	"errors"
	"testing"

	"nephelix/internal/model"
)

func TestResourceManagerFail(t *testing.T) {
	rm, err := NewResourceManager(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rm.Lease()
	if err != nil {
		t.Fatal(err)
	}
	a.used = 3 // Fail must succeed even with occupied slots.
	if err := rm.Fail(a.ID); err != nil {
		t.Fatalf("Fail with occupied slots: %v", err)
	}
	if rm.Leased() != 0 {
		t.Errorf("Leased after fail: got %d, want 0", rm.Leased())
	}
	// The pool slot is freed: the pool can be filled again.
	if _, err := rm.Lease(); err != nil {
		t.Fatalf("lease after fail: %v", err)
	}
	if _, err := rm.Lease(); err != nil {
		t.Fatalf("second lease after fail: %v", err)
	}
	if _, err := rm.Lease(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("pool limit after fail: got %v, want ErrPoolExhausted", err)
	}
}

// TestReleaseAndFailErrorPaths is the table-driven satellite: every
// illegal release/fail sequence must be rejected without corrupting the
// manager's accounting.
func TestReleaseAndFailErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(rm *ResourceManager, leased *Node) error
	}{
		{
			name: "double release",
			run: func(rm *ResourceManager, n *Node) error {
				if err := rm.Release(n.ID); err != nil {
					return nil // first release must pass; checked below
				}
				return rm.Release(n.ID)
			},
		},
		{
			name: "release unknown node",
			run: func(rm *ResourceManager, n *Node) error {
				return rm.Release("worker-999")
			},
		},
		{
			name: "release after fail",
			run: func(rm *ResourceManager, n *Node) error {
				if err := rm.Fail(n.ID); err != nil {
					t.Fatalf("fail: %v", err)
				}
				return rm.Release(n.ID)
			},
		},
		{
			name: "double fail",
			run: func(rm *ResourceManager, n *Node) error {
				if err := rm.Fail(n.ID); err != nil {
					t.Fatalf("fail: %v", err)
				}
				return rm.Fail(n.ID)
			},
		},
		{
			name: "fail unknown node",
			run: func(rm *ResourceManager, n *Node) error {
				return rm.Fail("worker-999")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm, err := NewResourceManager(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			n, err := rm.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(rm, n); err == nil {
				t.Error("illegal sequence accepted")
			}
			if rm.Leased() < 0 || rm.Leased() > rm.poolSize {
				t.Errorf("lease accounting corrupted: %d leased", rm.Leased())
			}
		})
	}
}

func TestSchedulerFailNode(t *testing.T) {
	rm, err := NewResourceManager(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	// Fill two nodes: v0,v1 on node A; v2,v3 on node B.
	for i := 0; i < 4; i++ {
		if _, err := s.Place(task("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	nodeA := s.placements[task("v", 0)]
	nodeB := s.placements[task("v", 2)]
	if nodeA == nodeB {
		t.Fatal("expected tasks across two nodes")
	}

	orphans, err := s.FailNode(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 2 || orphans[0] != task("v", 0) || orphans[1] != task("v", 1) {
		t.Fatalf("orphans: %v", orphans)
	}
	if len(s.placements) != 2 {
		t.Errorf("placed after fail: got %d, want 2", len(s.placements))
	}
	if rm.Leased() != 1 {
		t.Errorf("leased after fail: got %d, want 1", rm.Leased())
	}
	for _, n := range s.Nodes() {
		if n == nodeA {
			t.Error("failed node still in scheduler order")
		}
	}

	// Orphans can be rescheduled onto surviving nodes / fresh leases.
	for _, o := range orphans {
		id, err := s.Place(o)
		if err != nil {
			t.Fatalf("reschedule %v: %v", o, err)
		}
		if id == nodeA {
			t.Errorf("task %v rescheduled onto the dead node", o)
		}
	}
	if len(s.placements) != 4 {
		t.Errorf("placed after reschedule: got %d, want 4", len(s.placements))
	}

	// Slot accounting invariant after the fail/reschedule churn.
	used := 0
	for _, id := range s.Nodes() {
		n := rm.leased[id]
		if n == nil {
			t.Fatalf("node %s in order but not leased", id)
		}
		if n.used < 0 || n.used > n.Slots {
			t.Errorf("node %s slot count out of range: %d/%d", id, n.used, n.Slots)
		}
		used += n.used
	}
	if used != len(s.placements) {
		t.Errorf("slot accounting: %d used slots for %d placed tasks", used, len(s.placements))
	}
}

func TestSchedulerFailNodeUnknown(t *testing.T) {
	rm, err := NewResourceManager(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	if _, err := s.FailNode("worker-999"); err == nil {
		t.Error("failing unknown node accepted")
	}
}

// TestPlaceAfterPoolExhaustion verifies the scheduler recovers once a
// node failure (or release) frees pool capacity after exhaustion.
func TestPlaceAfterPoolExhaustion(t *testing.T) {
	rm, err := NewResourceManager(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	if _, err := s.Place(task("v", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(task("v", 1)); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	nodeA := s.placements[task("v", 0)]
	if _, err := s.FailNode(nodeA); err != nil {
		t.Fatal(err)
	}
	// Pool capacity is back; the previously rejected task now places.
	if _, err := s.Place(task("v", 1)); err != nil {
		t.Fatalf("place after fail freed the pool: %v", err)
	}
	if len(s.placements) != 1 {
		t.Errorf("placed: got %d, want 1", len(s.placements))
	}
}

// TestUsageMeterStopsBillingDeadNodes checks that a failed node drops out
// of the Leased() count the meter integrates over.
func TestUsageMeterStopsBillingDeadNodes(t *testing.T) {
	rm, err := NewResourceManager(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rm)
	var m UsageMeter
	tasks := []model.TaskID{task("v", 0), task("v", 1)}
	for _, tk := range tasks {
		if _, err := s.Place(tk); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(0, len(s.placements), rm.Leased())
	m.Advance(10, len(s.placements), rm.Leased()) // 10 s × 2 tasks × 2 nodes
	nodeA := s.placements[tasks[0]]
	if _, err := s.FailNode(nodeA); err != nil {
		t.Fatal(err)
	}
	m.Advance(20, len(s.placements), rm.Leased()) // 10 s × 1 task × 1 node
	if got, want := m.TaskSeconds(), 10.0*2+10.0*1; got != want {
		t.Errorf("TaskSeconds: got %v, want %v", got, want)
	}
	if got, want := m.NodeHours()*3600, 10.0*2+10.0*1; !almostEqual(got, want, 1e-12) {
		t.Errorf("NodeSeconds: got %v, want %v", got, want)
	}
}
