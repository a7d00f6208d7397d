package sim

import (
	"fmt"
	"math"
	"slices"

	"nephelix/internal/model"
	"nephelix/internal/obs"
)

// TaskKill abruptly kills tasks of one vertex at virtual time At. Unlike
// a scale-down the victims do not drain: queued input, buffered output
// and stalled batches are lost, and the tasks' QoS histories are NOT
// forgotten — they linger in their managers until age-out, so the QoS
// plane observes the same stale-measurement window a real crash causes.
type TaskKill struct {
	// At is the kill time in virtual seconds.
	At float64
	// Vertex names the job vertex whose tasks die.
	Vertex string
	// Count kills that many tasks; Fraction kills
	// ceil(Fraction·parallelism). The larger of the two applies; if both
	// are zero one task dies. Victims are drawn from the active tasks
	// with the simulation RNG, so runs stay seed-deterministic.
	Count    int
	Fraction float64
}

// NodeKill fails one leased worker node at virtual time At: its lease is
// revoked (the pool shrinks, usage metering stops), and every task
// placed on it dies as in TaskKill.
type NodeKill struct {
	// At is the kill time in virtual seconds.
	At float64
	// NodeIndex selects the victim from the scheduler's lease-ordered
	// node list, modulo the number of leased nodes at kill time.
	NodeIndex int
}

// FaultPlan is a deterministic fault-injection schedule. All injected
// events draw randomness only from the simulation's seeded RNG, so the
// same seed replays the same failure scenario exactly.
type FaultPlan struct {
	TaskKills []TaskKill
	NodeKills []NodeKill
	// Respawn re-creates each killed task RestartDelay seconds after its
	// kill (the engine supervisor's restart, time-compressed). Respawned
	// tasks are placed fresh by the scheduler, so tasks orphaned by a
	// node kill land on surviving nodes.
	Respawn bool
	// RestartDelay is the respawn latency in virtual seconds
	// (default 1).
	RestartDelay float64
}

// validate checks the plan against the job graph.
func (p *FaultPlan) validate(c *Config) error {
	for i, k := range p.TaskKills {
		if k.At < 0 {
			return fmt.Errorf("sim: task kill %d has negative time %g", i, k.At)
		}
		if _, ok := c.Vertices[k.Vertex]; !ok {
			return fmt.Errorf("sim: task kill %d targets unknown vertex %q", i, k.Vertex)
		}
		if k.Fraction < 0 || k.Fraction > 1 {
			return fmt.Errorf("sim: task kill %d has fraction %g outside [0, 1]", i, k.Fraction)
		}
	}
	for i, k := range p.NodeKills {
		if k.At < 0 {
			return fmt.Errorf("sim: node kill %d has negative time %g", i, k.At)
		}
		if k.NodeIndex < 0 {
			return fmt.Errorf("sim: node kill %d has negative node index", i)
		}
	}
	if p.Respawn && p.RestartDelay <= 0 {
		p.RestartDelay = 1
	}
	return nil
}

// scheduleFaults pushes the plan's kills into the event queue (Run).
// Events carry the plan index; dispatch re-reads the entry from
// s.cfg.Faults.
func (s *Sim) scheduleFaults(p *FaultPlan) {
	for i := range p.TaskKills {
		s.schedule(p.TaskKills[i].At, evTaskKill, 0, int32(i))
	}
	for i := range p.NodeKills {
		s.schedule(p.NodeKills[i].At, evNodeKill, 0, int32(i))
	}
}

// injectTaskKill executes one TaskKill event.
func (s *Sim) injectTaskKill(k TaskKill, p *FaultPlan) {
	v := s.vertices[k.Vertex]
	n := k.Count
	if f := int(math.Ceil(k.Fraction * float64(len(v.tasks)))); f > n {
		n = f
	}
	if n < 1 {
		n = 1
	}
	killed := 0
	for i := 0; i < n && len(v.tasks) > 0; i++ {
		t := v.tasks[s.rng.Intn(len(v.tasks))]
		s.killTask(t, true)
		killed++
	}
	if p.Respawn && killed > 0 {
		s.scheduleRespawn(slices.Index(s.vertexOrder, k.Vertex), killed, p.RestartDelay)
	}
}

// injectNodeKill executes one NodeKill event.
func (s *Sim) injectNodeKill(k NodeKill, p *FaultPlan) {
	nodes := s.scheduler.Nodes()
	if len(nodes) == 0 {
		return
	}
	id := nodes[k.NodeIndex%len(nodes)]
	s.accountUsage() // integrate usage while the node still bills
	orphans, err := s.scheduler.FailNode(id)
	if err != nil {
		s.fail("node kill: %v", err)
		return
	}
	s.killedNodes++
	perVertex := make(map[string]int)
	for _, tid := range orphans {
		if t := s.findTask(tid); t != nil {
			// FailNode already dropped the placement; don't unplace again.
			s.killTask(t, false)
			perVertex[tid.Vertex]++
		}
	}
	if p.Respawn {
		for pos, name := range s.vertexOrder {
			if n := perVertex[name]; n > 0 {
				s.scheduleRespawn(pos, n, p.RestartDelay)
			}
		}
	}
}

// scheduleRespawn re-adds n tasks after delay to the vertex at position
// pos of s.vertexOrder.
func (s *Sim) scheduleRespawn(pos, n int, delay float64) {
	if s.guar != nil {
		// Hold checkpoint injection until recovery settles, like the
		// engine master's pendingRecovery gate.
		s.guar.pendingResp++
	}
	s.schedule(s.now+delay, evRespawn, int32(pos), int32(n))
}

// respawn executes one evRespawn: places n replacement tasks on v.
func (s *Sim) respawn(v *simVertex, n int) {
	s.accountUsage()
	if s.guar != nil {
		s.guar.pendingResp--
	}
	added := v.addTasks(n)
	s.respawnedTasks += added
	if s.cfg.Recorder != nil && added > 0 {
		s.cfg.Recorder.RecordLifecycle(s.now, obs.KindTaskRestart, obs.Lifecycle{
			Vertex:         v.jv.Name,
			Reason:         "fault respawn",
			Attempts:       added,
			BackoffSeconds: s.cfg.Faults.RestartDelay,
		})
	}
	// Replay every source's uncommitted suffix: the crash may have
	// dropped derived records of any source (at-least-once recovery).
	s.replayAll()
}

// findTask locates a live (active or draining) task by id.
func (s *Sim) findTask(id model.TaskID) *simTask {
	v := s.vertices[id.Vertex]
	if v == nil {
		return nil
	}
	for _, t := range v.tasks {
		if t.id == id {
			return t
		}
	}
	for t := range v.draining {
		if t.id == id {
			return t
		}
	}
	return nil
}

// killTask removes a task abruptly: no draining, queued and buffered
// items are lost, producers blocked on the victim are released. The
// task's QoS history is deliberately NOT forgotten — a crashed reporter
// just stops reporting, and the manager only drops its history after
// age-out. That stale window is what FaultPlan exists to exercise.
func (s *Sim) killTask(t *simTask, unplace bool) {
	if t.disposed {
		return
	}
	lostBefore := s.killedItems
	s.accountUsage() // integrate usage before the task count drops
	v := t.vtx
	for i, x := range v.tasks {
		if x == t {
			v.tasks = append(v.tasks[:i], v.tasks[i+1:]...)
			break
		}
	}
	delete(v.draining, t)
	t.disposed = true
	t.killed = true
	if t.isSource {
		t.srcStopped = true
	}
	s.detachSrcLog(t)

	// Queued input dies with the task (barrier markers are control
	// traffic, not lost records).
	s.killedItems += t.queue.dataItems()
	for _, b := range t.queue.drain() {
		s.recycleBatch(b.items)
	}

	// Inbound channels: stalled batches die, their producers unblock and
	// resume; the channel leaves the producer's routing and stops
	// reporting.
	var resumed []*simTask
	for _, ch := range t.in {
		if len(ch.stalled) > 0 {
			for _, b := range ch.stalled {
				s.killedItems += dataItems(b.items)
				s.recycleBatch(b.items)
			}
			ch.stalled = nil
			ch.from.blockedOut--
			resumed = append(resumed, ch.from)
		}
		s.unrouteChannel(ch, true)
		ch.closed = true
	}
	t.in = nil
	t.stalledInBatches = 0

	// Outbound gates: buffered output and batches stalled at consumers
	// die; channels close and leave the consumers' in-lists.
	for _, g := range t.gates {
		s.killedItems += int64(g.Buffered())
		for _, ch := range g.Consumers() {
			if len(ch.stalled) > 0 {
				for _, b := range ch.stalled {
					s.killedItems += dataItems(b.items)
					ch.to.stalledInBatches--
					s.recycleBatch(b.items)
				}
				ch.stalled = nil
			}
			ch.closed = true
			to := ch.to
			for i, c := range to.in {
				if c == ch {
					to.in = append(to.in[:i], to.in[i+1:]...)
					break
				}
			}
		}
	}
	t.gates = nil

	s.retiredBusy += t.busyAccum
	if unplace {
		if err := s.scheduler.Unplace(t.id); err != nil {
			s.fail("killing %s: %v", t.id, err)
		}
	}
	s.killedTasks++
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RecordLifecycle(s.now, obs.KindTaskKill, obs.Lifecycle{
			Vertex:      t.id.Vertex,
			Task:        t.id.String(),
			Reason:      "fault injection",
			LostRecords: s.killedItems - lostBefore,
		})
	}
	s.noteSimChurn("fault kill rewired topology")
	for _, p := range resumed {
		s.resume(p)
	}
}
