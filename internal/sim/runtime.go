package sim

import (
	"math/rand"

	"nephelix/internal/ckpt"
	"nephelix/internal/gate"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/qos"
)

// simChannel is one producer→consumer communication path. Buffering
// happens in the producer's output gate; the channel carries batches in
// one FIFO from ship to acceptance, stalls them under backpressure and
// owns the QoS channel reporter.
type simChannel struct {
	id model.ChannelID
	// edgeName caches id.Edge.String() so per-sample tracing does not
	// re-render (and re-allocate) the key on the hot path; graphEdge is
	// the edge's position in the job graph's edge list.
	edgeName  string
	graphEdge int
	from      *simTask
	to        *simTask

	established bool
	closed      bool
	// slot is the channel's index in Sim.chanSlots (see event.n).
	slot int32

	// fifo holds the batches shipped and not yet accepted, oldest first,
	// like the engine's ring: the first arrived have arrived and stall,
	// blocking the producer, until the front one fits the queue; each
	// other one is in transit with one evDeliver queued. Every ship
	// clamps to lastArrive, the latest delivery scheduled, so no batch
	// overtakes an earlier one, not even during the TCP setup.
	fifo       batchFIFO
	arrived    int
	lastArrive float64

	reporter qos.ChannelReporter
	history  qos.ChannelHandle // the reporter's registration with its manager

	// Data-plane mirror counters (plain int64: the simulator is
	// single-threaded). accepted and popped count items through the
	// consumer's queue attributed to this channel; stallItems counts
	// items that hit a full queue (a stalled batch is re-accepted — and
	// re-counted as accepted — once space frees). highWater tracks the
	// worst attributed occupancy. These feed scrapeDataplane so sim
	// attributions are comparable with the engine's ring counters, in
	// item units rather than the engine's batch units. Once the channel
	// is closed (closeChannel), every further change to accepted and
	// popped also goes to its edge's retired totals; it never stalls.
	accepted   int64
	popped     int64
	stallItems int64
	highWater  int64
}

// vtime is virtual seconds as the output gate's time type.
type vtime float64

func (t vtime) Add(d float64) vtime { return t + vtime(d) }
func (t vtime) Before(u vtime) bool { return t < u }

// outGate is the simulator's transport around one output gate: routing,
// batching and churn decisions are internal/gate's (embedded), sized in
// bytes against the edge's BufferBytes; this type adds what only the
// event loop knows — the edge's batching mode and current deadline,
// whether an evFlushTimer is outstanding, and the flush a blocked
// producer had to defer. Following Nephele's design, round-robin and
// broadcast edges batch in a single producer-side buffer and key-based
// edges keep one buffer per consumer.
type outGate struct {
	*gate.Gate[*simChannel, Item, vtime, float64]

	t    *simTask
	edge model.EdgeKey
	// graphEdge is the edge's position in the job graph's edge list.
	graphEdge int
	mode      BatchMode
	// deadline is the adaptive flush deadline (0 = instant, +Inf =
	// size-only).
	deadline float64

	// timerSet marks an evFlushTimer in the queue.
	timerSet bool
	// pending marks a size/deadline-triggered flush deferred because the
	// producer is blocked in a send; resume ships the whole gate.
	pending bool
}

// simTask is one task of the runtime graph: a single-server queueing
// station with an input queue and output gates per out-edge.
type simTask struct {
	id   model.TaskID
	name string // id.String(), rendered at the first data-plane scrape
	vtx  *simVertex
	// slot is the task's index in Sim.taskSlots (see event.tslot).
	slot int32

	behavior Behavior
	ctx      TaskContext

	// queue is the input queue, counted in items.
	queue taskQueue

	busy     bool
	draining bool
	disposed bool
	// killed marks abrupt FaultPlan disposal (vs. graceful drain), so
	// late in-flight batches are accounted as fault losses.
	killed bool

	// blockedOut counts output channels with stalled batches; a task with
	// blockedOut > 0 is stuck in a send and processes nothing.
	blockedOut int
	// pendingOverhead is CPU debt (flush/receive costs) added to the next
	// service time.
	pendingOverhead float64

	gates []*outGate    // one per outgoing job edge
	in    []*simChannel // incoming channels

	// inflightIn counts batches in transit to this task; stalledInBatches
	// counts batches stalled on inbound channels (their arrived batches).
	inflightIn       int
	stalledInBatches int

	// source state; srcRate is the schedule's rate at the emission in
	// progress.
	isSource       bool
	srcPendingEmit bool
	srcStopped     bool
	srcRate        float64

	// rwPending holds consume times of sampled items awaiting the next
	// write (read-write task latency).
	rwPending []float64

	// svcItem, svcHdr and svcTime hold the item currently in service, the
	// header of the batch it came in and its service time; a task serves
	// one item at a time, so the pending evServiceDone event carries only
	// the task. svcLast marks the last item of its batch.
	svcItem Item
	svcHdr  batchHeader
	svcTime float64
	svcLast bool

	// timerInterval caches TimerBehavior.TimerInterval for evTimer
	// rescheduling.
	timerInterval float64

	// curSpan is the trace span of the item currently being processed
	// (or emitted, for sources); items emitted meanwhile inherit it.
	curSpan *obs.Span

	// Processing-guarantee state. srcLog is the source offset log (nil
	// for non-sources or when disabled); replaying suppresses stamping
	// during a replay re-emission. dedup is the sink vertex's shared
	// table (nil otherwise). align counts inbound barriers;
	// pendingBarrier defers a barrier forward while the task is blocked
	// in a send. curSrc/curOff is the lineage of the item being
	// processed, inherited by its emissions.
	srcLog         *ckpt.Log[replayItem]
	replaying      bool
	dedup          *ckpt.DedupTable
	align          ckpt.Aligner
	pendingBarrier int64
	curSrc         int32
	curOff         uint64

	reporter qos.TaskReporter
	history  qos.TaskHandle // the reporter's registration with its manager

	// busyAccum integrates busy time for CPU-utilization reporting.
	busyAccum float64
}

// queueLen returns the current input queue length in items.
func (t *simTask) queueLen() int { return t.queue.n }

// popQueue takes the oldest item off t's queue, copying it and its
// batch's header into t's service slot if serve is set. The slot it lay
// in drops its references at once; the array goes back to the pool with
// its last item.
func (s *Sim) popQueue(t *simTask, serve bool) {
	head, hdr := t.queue.peek()
	if hdr.src.popped++; hdr.src.closed {
		s.retired[hdr.src.graphEdge].pops++
	}
	if serve {
		t.svcItem, t.svcHdr = *head, *hdr
	}
	head.release()
	b := t.queue.advance()
	t.svcLast = serve && b != nil
	if b != nil {
		s.poolBatch(b)
	}
}

// endService empties the service slot: it pins the item's references and
// the delivering channel only while the item is in service.
func (t *simTask) endService() {
	t.svcItem.release()
	t.svcHdr.src = nil
}

// TaskContext is the API surface a Behavior sees while processing.
type TaskContext struct {
	s *Sim
	t *simTask
}

// Now returns the current virtual time in seconds.
func (c *TaskContext) Now() float64 { return c.s.now }

// EmitRate returns the source schedule's rate at the emission in progress
// — Schedule.Rate(now) as the simulator has just evaluated it for the
// SourceFunc's now — so an emitter whose output depends on the rate need
// not evaluate the schedule a second time.
func (c *TaskContext) EmitRate() float64 { return c.t.srcRate }

// Rand returns the simulation's deterministic random source.
func (c *TaskContext) Rand() *rand.Rand { return c.s.rng }

// Emit sends an item along the task's edgeIdx-th outgoing job edge
// (ordered as in JobGraph.OutEdges). The wiring pattern of the edge
// selects the consumer(s). Emit stamps *it (buffer time, lineage, span)
// and copies it into the gate buffer — the item's one write; nothing
// keeps the pointer, so the caller may emit the item again or reuse it.
func (c *TaskContext) Emit(edgeIdx int, it *Item) {
	c.s.emit(c.t, edgeIdx, it)
}

// emit stamps *it and routes it from task t into its edgeIdx-th output
// gate, which copies it into the buffer.
func (s *Sim) emit(t *simTask, edgeIdx int, it *Item) {
	if edgeIdx < 0 || edgeIdx >= len(t.gates) {
		s.fail("emit on invalid edge index %d from %s", edgeIdx, t.id)
		return
	}
	// A write completes read-write latency measurements.
	if len(t.rwPending) > 0 {
		for _, tc := range t.rwPending {
			t.reporter.RecordTaskLatency(s.now - tc)
		}
		t.rwPending = t.rwPending[:0]
	}
	g := t.gates[edgeIdx]
	if len(g.Consumers()) == 0 {
		return // all consumers gone (drained); drop
	}
	if s.guar != nil {
		if t.isSource {
			if l := t.srcLog; l != nil && !t.replaying {
				it.Src = l.ID()
				stored := *it
				stored.span = nil // the log must not pin trace spans
				it.Offset = l.Append(replayItem{it: stored, edge: int8(edgeIdx)})
			}
		} else {
			it.Src = t.curSrc
			it.Offset = t.curOff
		}
	}
	it.BufferTime = s.now
	if it.span == nil {
		// Inherit the span of the item being processed (or of the traced
		// source emission), so derived items keep the trace alive.
		it.span = t.curSpan
	}
	if k, v := g.Push(it, it.Key, int(it.Size), vtime(s.now), g.deadline); v&gate.Flush != 0 {
		s.flushSlot(g, k)
	} else if !g.timerSet {
		s.armFlushTimer(t, edgeIdx)
	}
}

// armFlushTimer schedules a deadline flush check of task t's pos-th gate
// at its earliest lapsing deadline, if it has a finite one and holds
// records. A deadline that lapsed already (the QoS plane made it finite
// or shorter while the gate held older records) is checked now.
func (s *Sim) armFlushTimer(t *simTask, pos int) {
	g := t.gates[pos]
	at, ok := g.NextDue(g.deadline)
	if !ok {
		return
	}
	g.timerSet = true
	s.schedule(max(float64(at), s.now), evFlushTimer, t.slot, int32(pos))
}

// flushTimerFire runs one deadline flush check of task t's pos-th gate:
// it ships what is due now and re-arms for whatever stays buffered,
// whichever flush emptied the gate since the timer was armed.
func (s *Sim) flushTimerFire(t *simTask, pos int) {
	if t.disposed {
		return
	}
	g := t.gates[pos]
	g.timerSet = false
	due := g.Due(vtime(s.now+1e-12), g.deadline)
	for _, k := range due {
		s.flushSlot(g, k)
	}
	if len(due) == 0 || !g.pending {
		s.armFlushTimer(t, pos) // whatever is still buffered and not deferred
	}
}

// flushSlot ships one gate buffer to whoever the gate addresses it to:
// the next consumer in rotation, its pinned consumer (key-based), or
// every consumer (broadcast — the last takes the original, the others
// copies). A blocked producer defers the flush until it resumes.
func (s *Sim) flushSlot(g *outGate, k int) {
	if g.t.blockedOut > 0 {
		// The producer is stuck in a send; ship once it resumes.
		g.pending = true
		return
	}
	f := g.Take(k, s.getBatch()) // detach; refill from the free list
	s.shipBatch(f.To, f.Recs, f.Weight)
}

// shipBatch ships a detached buffer of the given byte size to every
// addressee; with none left the items die with their consumer.
func (s *Sim) shipBatch(to []*simChannel, items []Item, bytes int) {
	if len(to) == 0 {
		s.killedItems += int64(len(items))
		s.recycleBatch(items)
		return
	}
	last := len(to) - 1
	for _, ch := range to[:last] {
		s.ship(ch, append(s.getBatch(), items...), bytes, 0)
	}
	s.ship(to[last], items, bytes, 0)
}

// ship charges the producer the flush CPU cost, stamps the batch shipped
// now on ch (a barrier marker if barrier is not zero), queues it on the
// channel and schedules its delivery after the network transit time, but
// not before the channel's previous one.
func (s *Sim) ship(ch *simChannel, items []Item, bytes int, barrier int64) {
	ch.from.pendingOverhead += s.cfg.Costs.FlushCPU
	transit := s.cfg.Costs.NetFixed + s.cfg.Costs.NetPerByte*float64(bytes)
	if !ch.established {
		transit += s.cfg.Costs.TCPSetup
		ch.established = true
	}
	ch.lastArrive = max(s.now+transit, ch.lastArrive)
	ch.to.inflightIn++
	ch.fifo.push(batch{items: items, batchHeader: batchHeader{shipped: s.now, src: ch, barrier: barrier}})
	s.schedule(ch.lastArrive, evDeliver, ch.from.slot, ch.slot)
}

// flushGate flushes everything buffered in a gate (drain, barriers, a
// resumed producer), keyed buffers in consumer order.
func (s *Sim) flushGate(g *outGate) {
	g.pending = false
	for _, k := range g.NonEmpty() {
		s.flushSlot(g, k)
	}
}

// deliver is the arrival of ch's oldest batch in transit: a consumer
// that is gone drops it; otherwise it stalls, blocking the producer
// (backpressure), unless it is the front batch and fits the queue. A
// batch on a closed channel outlived its producer and is in no in list
// that retryStalled walks, so the consumer takes it at once, room or not.
func (s *Sim) deliver(ch *simChannel) {
	to := ch.to
	to.inflightIn--
	if to.disposed {
		// Drained, or killed with the stalled batches; a marker is no
		// lost record.
		b := s.popBatch(ch)
		if to.killed {
			s.killedItems += b.dataItems()
		} else {
			s.droppedItems += b.dataItems()
		}
		s.recycleBatch(b.items)
		return
	}
	ch.arrived++
	if ch.arrived == 1 && (ch.closed || s.fits(ch)) {
		s.acceptFront(ch)
		return
	}
	if ch.arrived == 1 {
		ch.from.blockedOut++
	}
	to.stalledInBatches++
	ch.stallItems += int64(len(ch.fifo.at(ch.arrived - 1).items))
}

// fits reports whether ch's consumer has room for its front batch.
func (s *Sim) fits(ch *simChannel) bool {
	return s.cfg.QueueCapacityItems-ch.to.queueLen() >= len(ch.fifo.front().items)
}

// popBatch takes ch's oldest batch off its FIFO. A closed channel left
// empty lets go of its slot: no event can name it any more.
func (s *Sim) popBatch(ch *simChannel) batch {
	b := ch.fifo.pop()
	if ch.closed && ch.fifo.len() == 0 {
		s.chanSlots[ch.slot] = nil
	}
	return b
}

// acceptFront takes ch's front batch, which has arrived, into the
// consumer's queue, stamps it arrived now and kicks the consumer.
func (s *Sim) acceptFront(ch *simChannel) {
	ch.arrived--
	b := s.popBatch(ch)
	to := ch.to
	to.pendingOverhead += s.cfg.Costs.ReceiveCPU
	b.arrive = s.now
	// Every record is one arrival; a marker is no workload.
	for arrivals := b.dataItems(); arrivals > 0; arrivals-- {
		to.reporter.RecordArrival(s.now)
	}
	to.queue.push(b) // the array itself: popQueue returns it to the pool
	if ch.accepted += int64(len(b.items)); ch.closed {
		s.retired[ch.graphEdge].pushes += int64(len(b.items))
	}
	if occ := ch.accepted - ch.popped; occ > ch.highWater {
		ch.highWater = occ
	}
	s.maybeStart(to)
}

// retryStalled accepts stalled batches on the consumer's inbound
// channels, front first, after queue space freed up; a channel whose
// stall ends resumes its producer.
func (s *Sim) retryStalled(to *simTask) {
	if to.stalledInBatches == 0 {
		return
	}
	for _, ch := range to.in {
		for ch.arrived > 0 {
			if !s.fits(ch) {
				return
			}
			to.stalledInBatches--
			s.acceptFront(ch)
			if ch.arrived == 0 {
				ch.from.blockedOut--
				s.resume(ch.from)
			}
		}
	}
}

// dropStalled discards ch's stalled batches when a kill takes down
// either end: their records are lost, and the producer is no longer
// blocked on ch. It reports whether there were any.
func (s *Sim) dropStalled(ch *simChannel) bool {
	if ch.arrived == 0 {
		return false
	}
	for ; ch.arrived > 0; ch.arrived-- {
		b := s.popBatch(ch)
		s.killedItems += b.dataItems()
		ch.to.stalledInBatches--
		s.recycleBatch(b.items)
	}
	ch.from.blockedOut--
	return true
}

// resume wakes a producer whose last stalled batch was delivered.
func (s *Sim) resume(t *simTask) {
	if t.blockedOut > 0 || t.disposed {
		return
	}
	for _, g := range t.gates {
		if g.pending {
			s.flushGate(g)
		}
	}
	if t.blockedOut > 0 {
		return // the pending flush stalled again immediately
	}
	if id := t.pendingBarrier; id != 0 {
		// A barrier forward deferred while the task was blocked in a
		// send; it must ship before any new emission so the cut stays
		// consistent.
		t.pendingBarrier = 0
		if s.guar.coord.InFlight() == id {
			s.forwardBarrier(t, id)
		}
	}
	if t.isSource {
		if t.srcPendingEmit && !t.srcStopped {
			t.srcPendingEmit = false
			s.sourceEmit(t)
		}
		return
	}
	s.maybeStart(t)
}

// maybeStart begins servicing the next queued item if the task is idle
// and unblocked; it also finalizes draining tasks.
func (s *Sim) maybeStart(t *simTask) {
	if t.busy || t.disposed || t.blockedOut > 0 || t.isSource {
		return
	}
	// Barrier markers at the queue head are consumed by the alignment
	// logic at zero service cost; every pre-barrier item of the
	// barrier's producer was queued — and therefore serviced — first.
	for t.queueLen() > 0 {
		_, hdr := t.queue.peek()
		id := hdr.barrier
		if id == 0 {
			break
		}
		s.popQueue(t, false)
		s.handleBarrier(t, id)
		if t.busy || t.disposed || t.blockedOut > 0 {
			return
		}
	}
	if t.queueLen() == 0 {
		if t.draining {
			s.tryDispose(t)
		}
		return
	}
	// Park the item on the task before the ServiceTime interface call:
	// passing a pointer to a stack local through the interface would
	// force a per-item heap allocation.
	s.popQueue(t, true)
	it, hdr := &t.svcItem, &t.svcHdr
	hdr.src.reporter.RecordTransfer(s.now-it.BufferTime, hdr.shipped-it.BufferTime)
	st := t.behavior.ServiceTime(s.rng, it) + t.pendingOverhead
	t.pendingOverhead = 0
	if st < 0 {
		st = 0
	}
	// Mark busy before retrying stalled deliveries: acceptFront calls
	// back into maybeStart, which must not start a second concurrent
	// service on this task.
	t.busy = true
	t.svcTime = st
	s.schedule(s.now+st, evServiceDone, t.slot, 0)
	s.retryStalled(t)
}

// latencyModeRW reports whether the task's vertex uses read-write task
// latency.
func (t *simTask) latencyModeRW() bool {
	return t.vtx.jv.LatencyMode == model.LatencyReadWrite
}

// serviceDone finishes the item in service on t: records metrics, runs
// the behavior, and starts the next item.
func (s *Sim) serviceDone(t *simTask) {
	it, hdr := &t.svcItem, &t.svcHdr
	st := t.svcTime
	if t.disposed {
		// The task was killed mid-service; the in-progress item dies
		// with it.
		t.endService()
		s.killedItems++
		return
	}
	t.busy = false
	t.busyAccum += st
	t.vtx.processed++
	// A read-ready task's latency is this service time: its reporter
	// derives the one from the other (ReadReady).
	t.reporter.RecordService(st)
	t.reporter.RecordQueueWaitN((s.now-st)-hdr.arrive, 1)
	if t.latencyModeRW() && it.Sampled && len(t.rwPending) < 64 {
		t.rwPending = append(t.rwPending, s.now-st)
	}
	if it.span != nil {
		// Decompose the hop into the Table I latency pieces: time spent in
		// the producer's output buffer, network transit, queue wait at this
		// task, and the service time itself.
		batchDelay := hdr.shipped - it.BufferTime
		transit := hdr.arrive - hdr.shipped
		wait := (s.now - st) - hdr.arrive
		it.span.Hop(t.vtx.jv.Name, hdr.src.edgeName, batchDelay, transit, wait, st)
		s.cfg.Telemetry.ObserveHop(s.now, t.vtx.jv.Name, hdr.src.edgeName, batchDelay, transit, wait, st)
		if len(t.gates) == 0 {
			it.span.Finish(s.now)
			s.cfg.Telemetry.ObserveE2E(s.now, s.now-it.span.Start())
		}
	}
	if t.dedup != nil && it.Src != 0 && !t.dedup.Admit(it.Src, it.Offset) {
		// Sink dedup: replays re-deliver records that already arrived
		// before the crash. Detection runs at every guarantee level;
		// suppression (skipping Process) only under exactly-once.
		s.cfg.Telemetry.AddDeduped(s.now, 1)
		if s.guar.suppress {
			t.endService()
			s.maybeStart(t)
			return
		}
	}
	t.curSrc, t.curOff = it.Src, it.Offset
	t.curSpan = it.span
	// Process reads the service slot in place. Nothing it can reach starts
	// a service on t, so the slot is released after the call.
	t.behavior.Process(&t.ctx, it)
	if t.svcLast {
		// The input batch is finished: ship what it filled (Settle).
		for _, g := range t.gates {
			for _, k := range g.Settle() {
				s.flushSlot(g, k)
			}
		}
	}
	t.endService()
	t.curSpan = nil
	t.curSrc, t.curOff = 0, 0
	s.maybeStart(t)
}

// tryDispose finalizes a fully drained task. Partial output buffers are
// force-flushed so a draining task cannot hang on a never-filling fixed
// buffer.
func (s *Sim) tryDispose(t *simTask) {
	if t.disposed || !t.draining || t.busy || t.queueLen() > 0 || t.inflightIn > 0 || t.stalledInBatches > 0 {
		return
	}
	for _, g := range t.gates {
		s.flushGate(g)
	}
	if t.blockedOut > 0 {
		return // stalled outgoing batches must deliver first
	}
	for _, g := range t.gates {
		if g.Buffered() > 0 {
			return // a deferred flush is still pending
		}
	}
	t.disposed = true
	t.vtx.finalizeRemoval(t)
}
