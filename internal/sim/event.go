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

import (
	"math"
	"math/bits"
)

// eventKind discriminates the typed simulator events. Events are plain
// records dispatched by Sim.dispatch — no closures — so scheduling an
// action allocates nothing in steady state: the event lives in the
// queue's flat backing array.
type eventKind uint8

const (
	evNone eventKind = iota
	// The task-addressed kinds come first (see schedule): their tslot
	// indexes Sim.taskSlots.
	//
	// evSourceEmit is one emission of source task t.
	evSourceEmit
	// evTimer is one TimerBehavior tick of task t.
	evTimer
	// evFlushTimer is a deadline flush check of producer task t's gate n.
	evFlushTimer
	// evDeliver is the arrival of the oldest batch in transit on channel
	// n (Sim.chanSlots), shipped by task t.
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
	// evRespawn re-adds n tasks to the vertex at position tslot of
	// Sim.vertexOrder after a fault kill.
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
// The record is deliberately small (32 bytes) and pointer-free: the
// queue copies events in and out of its arena and heap sifts move them
// around, so every extra field costs a move and any pointer field would
// cost GC write-barrier work per move. Its operands are plain indices
// into append-only tables (Sim.taskSlots, Sim.chanSlots: slots are never
// reused, so a stale event resolves to the same, now-disposed task a
// pointer would have; a channel's slot is nil once no batch is left on
// it, and no event names it then); what a delivery carries waits on its
// channel.
type event struct {
	at  float64
	seq uint64
	// tslot indexes Sim.taskSlots (the task-addressed kinds) or
	// Sim.vertexOrder (evRespawn).
	tslot int32
	// n is the gate index (evFlushTimer), the channel slot (evDeliver),
	// the task count (evRespawn) or the FaultPlan entry index
	// (evTaskKill, evNodeKill).
	n    int32
	kind eventKind
	next int32 // the queue's list link; it fits the record's padding
}

// The wheel has wheelSize buckets of 1/wheelRate virtual seconds (15 µs;
// a 62.5 ms window), both powers of two so that scaling is exact and a
// slot is a mask. On the benchmark's PrimeTester job four inserts in
// five find their bucket empty and two pushes in a thousand lie beyond
// the window; maxBucket keeps absurd times (1e300, +Inf) ordered, in one
// far bucket, instead of overflowing int64.
const (
	wheelSize = 1 << 12
	wheelMask = wheelSize - 1
	wheelRate = 1 << 16
	maxBucket = 1 << 62
)

// bucketOf maps a time to its wheel bucket. Scaling by a power of two,
// truncating and saturating are each monotone in at, so an earlier
// bucket never holds a later event.
func bucketOf(at float64) int64 {
	x := at * wheelRate
	if x >= maxBucket {
		return maxBucket
	}
	return int64(x)
}

// eventQueue pops events in (at, seq) order. Events within the window of
// the one popped last — nearly all: service completions, deliveries,
// flush deadlines and source intervals lie milliseconds ahead — go into a
// timing wheel: one (at, seq)-sorted list per bucket, linked by index
// through a node arena, and a bitmap of the non-empty slots. bucketOf is
// monotone, so draining the buckets in order pops exactly the order a
// heap would. Events beyond the window (control ticks, source retries,
// respawns) wait in a flat 4-ary min-heap and move into the wheel, seq
// unchanged, as soon as the window reaches them — before anything is
// compared against them. The zero value is an empty queue.
type eventQueue struct {
	nextSeq uint64
	// cur is the bucket the window starts at: wheel events have buckets
	// in [cur, cur+wheelSize), one slot each (an earlier event is filed
	// under cur, where the sorted list still puts it first), far events
	// buckets from cur+wheelSize on.
	cur  int64
	near int // events in the wheel
	// head (per slot) and free (the free list) are arena index + 1, so
	// zero means none and nothing is set up; event.next links both.
	head  [wheelSize]int32
	occ   [wheelSize / 64]uint64
	nodes []event
	free  int32
	far   []event
}

// eventLess orders events by (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push schedules an event, assigning its FIFO sequence number; at must
// not be NaN (Sim.schedule rejects it). push and insert take the fields
// and pop fills a caller's variable because a six-field struct is not
// register-allocated: passing one spills it with narrow stores and
// copies it with wide loads, a stall dearer than the list splice.
func (q *eventQueue) push(at float64, kind eventKind, tslot, n int32) {
	q.nextSeq++
	if b := bucketOf(at); b < q.cur+wheelSize {
		q.insert(b, at, q.nextSeq, kind, tslot, n)
	} else {
		q.pushFar(event{at: at, seq: q.nextSeq, kind: kind, tslot: tslot, n: n})
	}
}

// insert files an event into the wheel under bucket b.
func (q *eventQueue) insert(b int64, at float64, seq uint64, kind eventKind, tslot, n int32) {
	if b < q.cur {
		b = q.cur
	}
	i := q.free - 1
	if i >= 0 {
		q.free = q.nodes[i].next
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, event{})
	}
	slot := b & wheelMask
	// Splice after every event ordered before this one.
	link := &q.head[slot]
	for *link != 0 {
		p := &q.nodes[*link-1]
		if p.at > at || p.at == at && p.seq > seq {
			break
		}
		link = &p.next
	}
	nd := &q.nodes[i] // field by field, not a literal: see push
	nd.at, nd.seq, nd.kind, nd.tslot, nd.n, nd.next = at, seq, kind, tslot, n, *link
	*link = i + 1
	q.occ[slot>>6] |= 1 << (slot & 63)
	q.near++
}

// nextOccupied returns the first non-empty bucket at or after cur; the
// wheel must not be empty.
func (q *eventQueue) nextOccupied() int64 {
	slot := q.cur & wheelMask
	w, off := slot>>6, slot&63
	if m := q.occ[w] >> off; m != 0 {
		return q.cur + int64(bits.TrailingZeros64(m))
	}
	// Whole words from here on; after a full turn this reaches w again,
	// whose low bits are the window's last buckets.
	for b := q.cur + 64 - off; ; b += 64 {
		w = (w + 1) & (wheelSize/64 - 1)
		if m := q.occ[w]; m != 0 {
			return b + int64(bits.TrailingZeros64(m))
		}
	}
}

// pop moves the earliest event into *ev; it reports false when empty.
func (q *eventQueue) pop(ev *event) bool {
	if q.near > 0 {
		q.cur = q.nextOccupied()
	} else if len(q.far) > 0 {
		q.cur = bucketOf(q.far[0].at) // idle gap: jump the window
	} else {
		return false
	}
	for len(q.far) > 0 && bucketOf(q.far[0].at) < q.cur+wheelSize {
		f := q.popFar()
		q.insert(bucketOf(f.at), f.at, f.seq, f.kind, f.tslot, f.n)
	}
	slot := q.cur & wheelMask
	i := q.head[slot] - 1
	nd := &q.nodes[i]
	*ev = *nd
	ev.next = 0
	q.head[slot] = nd.next
	if nd.next == 0 {
		q.occ[slot>>6] &^= 1 << (slot & 63)
	}
	nd.next = q.free
	q.free = i + 1
	q.near--
	return true
}

// pushFar and popFar are the far level: a flat 4-ary min-heap, sifting
// with index arithmetic in a backing array reused across the run.
func (q *eventQueue) pushFar(ev event) {
	i := len(q.far)
	q.far = append(q.far, ev)
	// Sift up: move parents down into the hole until ev's slot is found.
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&ev, &q.far[p]) {
			break
		}
		q.far[i] = q.far[p]
		i = p
	}
	q.far[i] = ev
}

func (q *eventQueue) popFar() event {
	top := q.far[0]
	n := len(q.far) - 1
	last := q.far[n]
	q.far = q.far[:n] // events are pointer-free: no clear needed
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
				if eventLess(&q.far[j], &q.far[m]) {
					m = j
				}
			}
			if !eventLess(&q.far[m], &last) {
				break
			}
			q.far[i] = q.far[m]
			i = m
		}
		q.far[i] = last
	}
	return top
}

// eventKindNames names the kinds for schedule's error.
var eventKindNames = [...]string{
	evNone: "none", evSourceEmit: "source-emit", evTimer: "timer", evFlushTimer: "flush-timer",
	evDeliver: "deliver", evServiceDone: "service-done", evMeasure: "measure", evAdjust: "adjust",
	evRecord: "record", evTaskKill: "task-kill", evNodeKill: "node-kill", evRespawn: "respawn",
	evCheckpoint: "checkpoint",
}

// schedule is the one place events enter the queue; tslot and n are the
// event's operands. A time that is NaN, infinite or in the past — from a
// Behavior's service time, a source interval or a transit cost — would
// scramble the pop order, step virtual time back or leave a task busy
// forever, so it fails the run instead.
func (s *Sim) schedule(at float64, kind eventKind, tslot, n int32) {
	if !(at <= math.MaxFloat64 && at >= s.now) {
		who := "the control plane"
		if kind <= evServiceDone {
			who = s.taskSlots[tslot].id.String()
		}
		s.fail("%s event of %s scheduled at %g: event times must be finite and not in the past", eventKindNames[kind], who, at)
		return
	}
	s.q.push(at, kind, tslot, n)
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
		s.flushTimerFire(s.taskSlots[ev.tslot], int(ev.n))
	case evDeliver:
		s.deliver(s.chanSlots[ev.n])
	case evServiceDone:
		s.serviceDone(s.taskSlots[ev.tslot])
	case evMeasure:
		s.measurementTick()
		if t := s.now + s.cfg.MeasurementInterval; t <= s.cfg.Duration {
			s.schedule(t, evMeasure, 0, 0)
		}
	case evAdjust:
		s.adjustmentTick()
		s.nextAdjust = s.now + s.cfg.AdjustmentInterval
		if s.nextAdjust <= s.cfg.Duration {
			s.schedule(s.nextAdjust, evAdjust, 0, 0)
		}
	case evRecord:
		if s.nextAdjust == s.now {
			// The adjustment of this instant goes first, so that the row
			// shows its decision.
			s.schedule(s.now, evRecord, 0, 0)
			return
		}
		s.recordTick()
		if t := s.now + recordInterval; t <= s.cfg.Duration {
			s.schedule(t, evRecord, 0, 0)
		}
	case evTaskKill:
		s.injectTaskKill(s.cfg.Faults.TaskKills[ev.n], s.cfg.Faults)
	case evNodeKill:
		s.injectNodeKill(s.cfg.Faults.NodeKills[ev.n], s.cfg.Faults)
	case evRespawn:
		s.respawn(s.vertices[s.vertexOrder[ev.tslot]], int(ev.n))
	case evCheckpoint:
		s.checkpointTick()
		if t := s.now + s.cfg.CheckpointInterval; t <= s.cfg.Duration {
			s.schedule(t, evCheckpoint, 0, 0)
		}
	}
}
