// Package cluster provides the master-side cluster substrate the paper's
// prototype relies on: a resource manager that leases and releases worker
// nodes from a bounded pool (Nephele's own resource manager in the
// paper), a slot-based scheduler that places tasks onto workers, and
// resource accounting in "task hours" (Section V-A's cost metric).
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"nephelix/internal/model"
)

// ErrPoolExhausted is returned when a task cannot be placed because every
// node of the pool is leased and fully occupied. Per the paper the user
// must be informed and make more cluster resources available.
var ErrPoolExhausted = errors.New("cluster: worker pool exhausted")

// Node is a leased worker node with a fixed number of task slots (one per
// CPU core; the paper's workers have 4 cores).
type Node struct {
	ID    string
	Slots int
	used  int
}

// Free returns the number of free slots.
func (n *Node) Free() int { return n.Slots - n.used }

// ResourceManager hands out worker nodes from a bounded homogeneous pool.
// It is not safe for concurrent use; the master serializes access.
type ResourceManager struct {
	poolSize     int
	slotsPerNode int
	leased       map[string]*Node
	nextID       int
}

// NewResourceManager creates a manager for a pool of poolSize worker
// nodes with slotsPerNode task slots each.
func NewResourceManager(poolSize, slotsPerNode int) (*ResourceManager, error) {
	if poolSize <= 0 {
		return nil, fmt.Errorf("cluster: pool size must be positive, got %d", poolSize)
	}
	if slotsPerNode <= 0 {
		return nil, fmt.Errorf("cluster: slots per node must be positive, got %d", slotsPerNode)
	}
	return &ResourceManager{
		poolSize:     poolSize,
		slotsPerNode: slotsPerNode,
		leased:       make(map[string]*Node),
	}, nil
}

// Lease acquires one more worker node, or ErrPoolExhausted when the pool
// limit is reached.
func (rm *ResourceManager) Lease() (*Node, error) {
	if len(rm.leased) >= rm.poolSize {
		return nil, ErrPoolExhausted
	}
	rm.nextID++
	n := &Node{ID: fmt.Sprintf("worker-%03d", rm.nextID), Slots: rm.slotsPerNode}
	rm.leased[n.ID] = n
	return n, nil
}

// Release returns a node to the pool. Releasing a node with occupied
// slots is a caller bug and returns an error.
func (rm *ResourceManager) Release(id string) error {
	n, ok := rm.leased[id]
	if !ok {
		return fmt.Errorf("cluster: release of unknown node %q", id)
	}
	if n.used > 0 {
		return fmt.Errorf("cluster: node %q still has %d occupied slots", id, n.used)
	}
	delete(rm.leased, id)
	return nil
}

// Fail revokes the lease of a node that has been declared dead. Unlike
// Release it succeeds even while slots are occupied: the node is gone,
// whatever ran on it is gone with it. The pool slot is freed so a
// replacement node can be leased; billing for the node stops because it
// no longer counts toward Leased(). Failing an unknown node returns an
// error so callers notice double-failures.
func (rm *ResourceManager) Fail(id string) error {
	if _, ok := rm.leased[id]; !ok {
		return fmt.Errorf("cluster: fail of unknown node %q", id)
	}
	delete(rm.leased, id)
	return nil
}

// Leased returns the number of currently leased nodes.
func (rm *ResourceManager) Leased() int { return len(rm.leased) }

// Scheduler places tasks into the slots of leased worker nodes, leasing
// new nodes on demand and releasing nodes that become empty. Placement is
// fill-first: it packs tasks onto already-leased nodes to keep the node
// footprint minimal, matching the goal of minimizing resource
// consumption.
type Scheduler struct {
	rm         *ResourceManager
	placements map[model.TaskID]string
	// order is the nodes the scheduler leased, in lease order; it drops
	// a node when it releases or fails it.
	order []*Node
}

// NewScheduler creates a scheduler on top of a resource manager.
func NewScheduler(rm *ResourceManager) *Scheduler {
	return &Scheduler{rm: rm, placements: make(map[model.TaskID]string)}
}

// Place assigns the task to a node slot and returns the node id.
func (s *Scheduler) Place(task model.TaskID) (string, error) {
	if _, ok := s.placements[task]; ok {
		return "", fmt.Errorf("cluster: task %s already placed", task)
	}
	for _, n := range s.order {
		if n.Free() > 0 {
			n.used++
			s.placements[task] = n.ID
			return n.ID, nil
		}
	}
	n, err := s.rm.Lease()
	if err != nil {
		return "", fmt.Errorf("cluster: placing %s: %w", task, err)
	}
	s.order = append(s.order, n)
	n.used++
	s.placements[task] = n.ID
	return n.ID, nil
}

// Unplace frees the task's slot and releases its node if it becomes
// empty.
func (s *Scheduler) Unplace(task model.TaskID) error {
	id, ok := s.placements[task]
	if !ok {
		return fmt.Errorf("cluster: task %s is not placed", task)
	}
	delete(s.placements, task)
	n := s.rm.leased[id]
	if n == nil {
		return fmt.Errorf("cluster: task %s placed on unknown node %q", task, id)
	}
	n.used--
	if n.used == 0 {
		if err := s.rm.Release(id); err != nil {
			return err
		}
		s.drop(id)
	}
	return nil
}

// FailNode handles the death of a worker node: it revokes the node's
// lease (even with occupied slots) and returns the tasks that were
// placed on it, sorted for determinism, so the caller can reschedule
// them onto surviving nodes. The orphaned tasks are removed from the
// placement map — from the scheduler's point of view they no longer run
// anywhere and can be Placed again.
func (s *Scheduler) FailNode(id string) ([]model.TaskID, error) {
	orphans := s.TasksOnNode(id)
	if err := s.rm.Fail(id); err != nil {
		return nil, err
	}
	for _, t := range orphans {
		delete(s.placements, t)
	}
	s.drop(id)
	return orphans, nil
}

// drop takes node id out of the lease order.
func (s *Scheduler) drop(id string) {
	s.order = slices.DeleteFunc(s.order, func(n *Node) bool { return n.ID == id })
}

// Nodes returns the ids of the leased nodes in lease order.
func (s *Scheduler) Nodes() []string {
	out := make([]string, len(s.order))
	for i, n := range s.order {
		out[i] = n.ID
	}
	return out
}

// TasksOnNode returns the tasks placed on the given node, sorted for
// determinism.
func (s *Scheduler) TasksOnNode(id string) []model.TaskID {
	var tasks []model.TaskID
	for t, nid := range s.placements {
		if nid == id {
			tasks = append(tasks, t)
		}
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Vertex != tasks[j].Vertex {
			return tasks[i].Vertex < tasks[j].Vertex
		}
		return tasks[i].Index < tasks[j].Index
	})
	return tasks
}

// UsageMeter integrates resource consumption over time: task seconds (the
// paper reports "task hours", the amount of running tasks over time) and
// node seconds. Time is caller-supplied in seconds so the meter works
// under wall-clock and virtual time alike.
type UsageMeter struct {
	lastTime    float64
	taskSeconds float64
	nodeSeconds float64
	started     bool
}

// Advance integrates usage from the previous call to now, with the given
// numbers of running tasks and leased nodes during that span.
func (m *UsageMeter) Advance(now float64, runningTasks, leasedNodes int) {
	if m.started && now > m.lastTime {
		dt := now - m.lastTime
		m.taskSeconds += dt * float64(runningTasks)
		m.nodeSeconds += dt * float64(leasedNodes)
	}
	m.lastTime = now
	m.started = true
}

// TaskHours returns the accumulated task hours.
func (m *UsageMeter) TaskHours() float64 { return m.taskSeconds / 3600 }

// NodeHours returns the accumulated node hours.
func (m *UsageMeter) NodeHours() float64 { return m.nodeSeconds / 3600 }

// TaskSeconds returns the accumulated task seconds.
func (m *UsageMeter) TaskSeconds() float64 { return m.taskSeconds }
