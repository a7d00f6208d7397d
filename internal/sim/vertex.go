package sim

import (
	"math"

	"nephelix/internal/gate"
	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// simVertex groups the data-parallel tasks of one job vertex and manages
// their elastic scaling.
type simVertex struct {
	sim *Sim
	jv  *model.JobVertex
	cfg VertexConfig

	// tasks are the active tasks; draining tasks have been removed from
	// routing but still process their queues; peak is the most tasks held.
	tasks    []*simTask
	draining map[*simTask]struct{}
	peak     int

	// nextIndex allocates unique task indices so QoS history never mixes
	// a removed task with its successor.
	nextIndex int

	// outEdges / inEdges cache the vertex's edge order.
	outEdges []model.EdgeKey
	inEdges  []model.EdgeKey
	// tail marks a vertex under a percentile constraint: its tasks report
	// the distribution of their queue waits, not only the mean.
	tail bool

	// emitted (sources) and processed count items across all tasks of
	// the vertex; the last* values mark the previous record interval.
	// Kept here — not in a per-name map — so the per-item increments in
	// sourceEmit/serviceDone cost a field bump, not a map hash.
	emitted       int64
	lastEmitted   int64
	processed     int64
	lastProcessed int64
}

// parallelism returns the number of active (routed-to) tasks.
func (v *simVertex) parallelism() int { return len(v.tasks) }

// newTask builds, places and wires one new task (gates without consumers
// yet).
func (v *simVertex) newTask() (*simTask, error) {
	s := v.sim
	id := model.TaskID{Vertex: v.jv.Name, Index: v.nextIndex}
	v.nextIndex++
	t := &simTask{
		id:       id,
		vtx:      v,
		isSource: v.cfg.Source != nil,
		reporter: *qos.NewTaskReporter(id),
		history:  s.nextManager().RegisterTask(),
	}
	if v.tail {
		t.reporter.TrackQueueWait()
	}
	if t.isSource || !t.latencyModeRW() {
		// A source's production cost and a read-ready task's service time
		// are their task latency.
		t.reporter.ReadReady()
	}
	t.ctx = TaskContext{s: s, t: t}
	t.slot = int32(len(s.taskSlots))
	s.taskSlots = append(s.taskSlots, t)
	if v.cfg.NewBehavior != nil {
		t.behavior = v.cfg.NewBehavior(id.Index)
	}
	if g := s.guar; g != nil {
		if t.isSource {
			// A reattached log's suffix waits for the next replayAll.
			t.srcLog, _ = g.logs.Attach(id.Vertex)
		}
		t.dedup = g.dedups[id.Vertex]
	}
	t.gates = make([]*outGate, len(v.outEdges))
	for pos, ek := range v.outEdges {
		ec := s.cfg.edgeConfig(ek)
		t.gates[pos] = &outGate{
			Gate:      gate.New[*simChannel, Item, vtime](s.cfg.Graph.Edge(ek).Pattern, ec.BufferBytes, math.Inf(1), s.rng),
			t:         t,
			edge:      ek,
			graphEdge: s.graphEdge[ek],
			mode:      ec.Mode,
			deadline:  s.initialGateDeadline(ec, ek),
		}
	}
	if _, err := s.scheduler.Place(id); err != nil {
		return nil, err
	}
	return t, nil
}

// initialGateDeadline gives a gate's starting flush deadline per mode.
func (s *Sim) initialGateDeadline(ec EdgeConfig, edge model.EdgeKey) float64 {
	switch ec.Mode {
	case BatchInstant:
		return 0
	case BatchFixedBuffer:
		return math.Inf(1)
	default:
		// Adaptive gates inherit the current QoS deadline, starting with
		// instant flushing until the QoS plane publishes one.
		if dl, ok := s.deadlines[edge]; ok {
			return dl
		}
		return 0
	}
}

// wire creates channels from producer p, through its outPos gate, to
// each of cs in order, and adds them to the gate as one consumer
// snapshot. Each channel is registered with the managers' round-robin
// and appended to its consumer's in list and to s.chanSlots as it is
// created, so wiring producer by producer gives the producer-major
// layout every simulated figure depends on.
func (s *Sim) wire(p *simTask, outPos int, cs []*simTask) {
	g := p.gates[outPos]
	s.wired = s.wired[:0]
	for _, c := range cs {
		ch := &simChannel{
			id:        model.ChannelID{Edge: g.edge, Producer: p.id.Index, Consumer: c.id.Index},
			edgeName:  s.edgeNames[g.graphEdge],
			graphEdge: g.graphEdge,
			from:      p,
			to:        c,
			slot:      int32(len(s.chanSlots)),
		}
		ch.reporter = *qos.NewChannelReporter(ch.id)
		ch.history = s.nextManager().RegisterChannel()
		c.in = append(c.in, ch)
		s.chanSlots = append(s.chanSlots, ch)
		s.wired = append(s.wired, ch)
	}
	g.Add(s.wired...)
	g.Observe()
	clear(s.wired) // the scratch list must not keep removed channels alive
}

// addTasks grows the vertex by n tasks, wiring channels to all current
// upstream producers and downstream consumers. It returns the number of
// tasks actually added (the scheduler pool may run out).
func (v *simVertex) addTasks(n int) int {
	s := v.sim
	added := 0
	for i := 0; i < n; i++ {
		t, err := v.newTask()
		if err != nil {
			s.poolExhaustedEvents++
			break
		}
		// Wire inbound channels from every active upstream producer
		// (draining producers no longer route new items). Each
		// producer's gate takes one snapshot per new task: wiring all n
		// new tasks per producer at once would reorder channel creation
		// and the managers' round-robin.
		for _, ek := range v.inEdges {
			pos := s.outEdgePos(ek)
			for _, p := range s.vertices[ek.Source].tasks {
				s.wire(p, pos, []*simTask{t})
			}
		}
		// Wire outbound channels to every active downstream consumer.
		for pos, ek := range v.outEdges {
			s.wire(t, pos, s.vertices[ek.Target].tasks)
		}
		v.tasks = append(v.tasks, t)
		if len(v.tasks) > v.peak {
			v.peak = len(v.tasks)
		}
		added++
		// Start source emission / timers for the new task.
		s.startTask(t)
	}
	if added > 0 {
		s.noteSimChurn("scale-up rewired topology")
	}
	return added
}

// removeTasks shrinks the vertex by n tasks (the most recently added
// ones): they leave the routing tables immediately and drain their queues
// before disposal.
func (v *simVertex) removeTasks(n int) {
	s := v.sim
	if n > 0 && len(v.tasks) > 0 {
		s.noteSimChurn("scale-down rewired topology")
	}
	for i := 0; i < n && len(v.tasks) > 0; i++ {
		t := v.tasks[len(v.tasks)-1]
		v.tasks = v.tasks[:len(v.tasks)-1]
		t.draining = true
		v.draining[t] = struct{}{}

		// Unroute: remove the channels leading to t from every producer's
		// gate. The channels stay alive for in-flight data.
		for _, ch := range t.in {
			s.unrouteChannel(ch, false)
		}
		if t.isSource {
			t.srcStopped = true
		}
		s.maybeStart(t)
		s.tryDispose(t)
	}
}

// unrouteChannel removes ch from its producer gate's active consumer
// list. The simulator's churn policy for the key buffer pinned to ch: a
// scale-down ships it to its original, now draining target so nothing
// is stranded; after a kill the consumer is dead, so the items are lost
// and counted.
func (s *Sim) unrouteChannel(ch *simChannel, killed bool) {
	for _, g := range ch.from.gates {
		if g.edge != ch.id.Edge {
			continue
		}
		g.Remove(ch)
		g.Observe()
		for _, b := range g.Stranded() {
			if killed {
				s.killedItems += int64(len(b.Recs))
				s.recycleBatch(b.Recs)
			} else {
				s.shipBatch(b.To, b.Recs, b.Weight)
			}
		}
	}
}

// finalizeRemoval cleans up a fully drained task.
func (v *simVertex) finalizeRemoval(t *simTask) {
	s := v.sim
	s.accountUsage() // integrate usage before the task count drops
	s.retiredBusy += t.busyAccum
	delete(v.draining, t)
	s.detachSrcLog(t)
	if err := s.scheduler.Unplace(t.id); err != nil {
		s.fail("unplacing %s: %v", t.id, err)
	}
	t.history.Forget()
	// Close and unregister the task's channels (both directions).
	for _, ch := range t.in {
		ch.closed = true
		ch.history.Forget()
	}
	for _, g := range t.gates {
		for _, ch := range g.Consumers() {
			ch.closed = true
			ch.history.Forget()
			// Remove from the consumer's in-list.
			to := ch.to
			for i, c := range to.in {
				if c == ch {
					to.in = append(to.in[:i], to.in[i+1:]...)
					break
				}
			}
		}
	}
}
