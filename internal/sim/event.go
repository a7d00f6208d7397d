// Package sim is a discrete-event simulator for stream processing jobs:
// tasks are single-server queueing stations, channels carry batches with
// configurable output batching (instant flush, fixed buffer, adaptive
// deadline), bounded input queues exert backpressure, and the QoS plane
// plus the elastic scaler of internal/core run unmodified on top of the
// simulated measurements.
//
// The simulator substitutes the paper's 130-node commodity cluster: it
// reproduces the mechanisms the evaluation depends on (queueing delay
// growth near saturation, the batching/latency trade-off via per-flush
// overhead, backpressure throttling, scale-up/scale-down dynamics) under
// virtual time, so cluster-scale experiments run on a laptop.
package sim

// eventKind discriminates the typed simulator events. Events are plain
// records dispatched by Sim.dispatch — no closures — so scheduling an
// action allocates nothing in steady state: the event lives in the
// queue's flat backing array.
type eventKind uint8

const (
	evNone eventKind = iota
	// evSourceEmit is one emission of source task t.
	evSourceEmit
	// evTimer is one TimerBehavior tick of task t.
	evTimer
	// evFlushTimer is a deadline flush check of gate g; gen detects
	// gates flushed since the timer was armed.
	evFlushTimer
	// evDeliver is the arrival of batch at the consumer end of ch.
	evDeliver
	// evServiceDone is the service completion of task t; the item in
	// service and its service time ride on the task (svcItem, svcTime).
	evServiceDone
	// evMeasure, evAdjust and evRecord are the recurring control-plane
	// ticks; each reschedules itself until the configured duration.
	evMeasure
	evAdjust
	evRecord
	// evTaskKill / evNodeKill fire FaultPlan entry n.
	evTaskKill
	evNodeKill
	// evRespawn re-adds n tasks to vertex v after a fault kill.
	evRespawn
	// evCheckpoint is the recurring barrier-checkpoint injection tick
	// (processing guarantees); it reschedules itself like the
	// control-plane ticks.
	evCheckpoint
)

// event is one scheduled simulator action. Events are ordered by
// (at, seq); seq is a FIFO tie-break for equal timestamps, so the pop
// order is a strict total order independent of heap shape.
//
// The record is deliberately small (32 bytes) and pointer-free: heap
// sifts copy events around, so every extra field costs a move and any
// pointer field would cost GC write-barrier work per move. Task-addressed
// events carry the task's arena slot (Sim.taskSlots — slots are never
// reused, so a stale event resolves to the same, now-disposed task a
// pointer would have); events with wider operand sets (deliveries, flush
// timers, respawns) park them in the Sim's evOp arena and carry only the
// arena index.
type event struct {
	at  float64
	seq uint64
	// tslot indexes Sim.taskSlots (evSourceEmit, evTimer, evServiceDone).
	tslot int32
	// n is the evOp arena index (evDeliver, evFlushTimer, evRespawn) or
	// the FaultPlan entry index (evTaskKill, evNodeKill).
	n    int32
	kind eventKind
}

// evOp holds the operands of events that need more than a task pointer.
// Ops live in a flat arena on the Sim with an index-linked free list:
// they are allocated once and recycled, and — unlike fields on the event
// itself — never move while the heap sifts.
type evOp struct {
	ch    *simChannel
	g     *outGate
	v     *simVertex
	batch []Item
	gen   uint64
	count int32
	next  int32 // free-list link
}

// allocOp returns a free arena slot index.
func (s *Sim) allocOp() int32 {
	if s.opFree >= 0 {
		i := s.opFree
		s.opFree = s.ops[i].next
		return i
	}
	s.ops = append(s.ops, evOp{})
	return int32(len(s.ops) - 1)
}

// takeOp reads slot i and returns it to the free list.
func (s *Sim) takeOp(i int32) evOp {
	op := s.ops[i]
	s.ops[i] = evOp{next: s.opFree}
	s.opFree = i
	return op
}

// eventQueue is a flat 4-ary min-heap of events ordered by (at, seq).
// Hand-rolled and monomorphic: no interface boxing on push/pop, sift
// moves elements with index arithmetic, and the backing array is reused
// across the whole run. The wider fan-out halves tree depth versus a
// binary heap, trading cheap comparisons for fewer element moves — the
// right trade for ~100-byte events.
type eventQueue struct {
	items   []event
	nextSeq uint64
}

// eventLess orders events by (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push schedules ev, assigning its FIFO sequence number.
func (q *eventQueue) push(ev event) {
	q.nextSeq++
	ev.seq = q.nextSeq
	i := len(q.items)
	q.items = append(q.items, ev)
	// Sift up: move parents down into the hole until ev's slot is found.
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&ev, &q.items[p]) {
			break
		}
		q.items[i] = q.items[p]
		i = p
	}
	q.items[i] = ev
}

// pop removes and returns the earliest event; ok is false when empty.
func (q *eventQueue) pop() (event, bool) {
	n := len(q.items)
	if n == 0 {
		return event{}, false
	}
	top := q.items[0]
	n--
	last := q.items[n]
	q.items = q.items[:n] // events are pointer-free: no clear needed
	if n > 0 {
		// Sift last down from the root: pull the smallest child up into
		// the hole until last's slot is found.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(&q.items[j], &q.items[m]) {
					m = j
				}
			}
			if !eventLess(&q.items[m], &last) {
				break
			}
			q.items[i] = q.items[m]
			i = m
		}
		q.items[i] = last
	}
	return top, true
}

// peekTime returns the earliest event time; ok is false when empty.
func (q *eventQueue) peekTime() (float64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// dispatch executes one popped event. The switch replaces the former
// per-event closures: every case re-derives its action from the typed
// operands.
func (s *Sim) dispatch(ev *event) {
	switch ev.kind {
	case evSourceEmit:
		s.sourceEmit(s.taskSlots[ev.tslot])
	case evTimer:
		s.timerFire(s.taskSlots[ev.tslot])
	case evFlushTimer:
		op := s.takeOp(ev.n)
		s.flushTimerFire(op.g, op.gen)
	case evDeliver:
		op := s.takeOp(ev.n)
		s.deliver(op.ch, op.batch)
	case evServiceDone:
		s.serviceDone(s.taskSlots[ev.tslot])
	case evMeasure:
		s.measurementTick()
		if t := s.now + s.cfg.MeasurementInterval; t <= s.cfg.Duration {
			s.q.push(event{at: t, kind: evMeasure})
		}
	case evAdjust:
		s.adjustmentTick()
		if t := s.now + s.cfg.AdjustmentInterval; t <= s.cfg.Duration {
			s.q.push(event{at: t, kind: evAdjust})
		}
	case evRecord:
		s.recordTick()
		if t := s.now + s.cfg.RecordInterval; t <= s.cfg.Duration {
			s.q.push(event{at: t, kind: evRecord})
		}
	case evTaskKill:
		s.injectTaskKill(s.cfg.Faults.TaskKills[ev.n], s.cfg.Faults)
	case evNodeKill:
		s.injectNodeKill(s.cfg.Faults.NodeKills[ev.n], s.cfg.Faults)
	case evRespawn:
		op := s.takeOp(ev.n)
		s.respawn(op.v, int(op.count))
	case evCheckpoint:
		s.checkpointTick()
		if t := s.now + s.cfg.CheckpointInterval; t <= s.cfg.Duration {
			s.q.push(event{at: t, kind: evCheckpoint})
		}
	}
}
