package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/qos"
	"nephelix/internal/ring"
)

// task is one running task of the cooperative data plane, and one lane:
// one goroutine runs it — a worker's or sink's scan loop, or a source's
// pacing loop — and parks on its parker. Its input side is a set of SPSC
// rings (one per upstream producer task) with the per-channel QoS state,
// the stride, idle prediction, barrier alignment and dedup that reading
// them needs. Its output side is its lane (emitter): the gates, and
// through them the rings into every downstream consumer, plus everything
// else the goroutine owns — clock, QoS reporter, Context and, on a
// source under guarantees, the offset log. A job emits from more cores
// by raising its source vertex's parallelism.
type task struct {
	// The task spans four cache lines of its 256-byte allocation class
	// (TestTaskSizeClass), grouped by who touches them: two read-mostly
	// lines, then the line producers read (parker), then the line the
	// consumer writes per batch.
	id  model.TaskID
	ex  *execution
	udf UDF
	src *SourceSpec
	// dedup is the sink vertex's shared dedup table (guarantees only).
	dedup *ckpt.DedupTable

	// lane is the output side; immutable after newTask.
	lane *emitter
	// The blank field fills the second read-mostly line to 64 bytes.
	_ [16]byte
	// inEdges is the vertex's inbound edge list, snapshotted once so edge
	// resolution never re-allocates it from the graph.
	inEdges []model.EdgeKey
	// inChans holds one entry per inbound channel, keyed by what every
	// batch carries; the lane's maybeReport flushes their reports.
	inChans map[chanKey]*inChannel
	// in is the consumer-side channel set, one ref per in-ring
	// (copy-on-write: the master appends at wiring time, the consumer
	// goroutine prunes the rings its producers closed once they are
	// drained). inMu serializes rewrites only.
	in atomic.Pointer[[]*channelRef]

	// pk is the task goroutine's parker, here rather than on the emitter
	// so that a producer reaches it from its channelRef in as few loads
	// as the ring itself (ship).
	pk parker
	// The blank field keeps the consumer's line at byte 192.
	_ [8]byte
	// draining is set by the master after the task left all routing
	// tables (scale-down), final on every task once the job is ending:
	// either way no producer will be wired to the task again, and it
	// exits once its input has ended (ended).
	draining atomic.Bool
	final    atomic.Bool
	// rw caches whether the vertex measures read-write task latency.
	rw   bool
	inMu sync.Mutex

	// busyNs integrates UDF time for utilization reporting.
	busyNs atomic.Int64
	// stride is how many records handleBatch processes between clock
	// reads: clockBudget over the per-record time it measured last,
	// clamped to [1, maxStride]. Task-goroutine-only state.
	stride int
	// idle predicts the consumer's next wait for input, which decides
	// spin or park (run; task-goroutine-only).
	idle idleGap
	// align counts inbound checkpoint barriers (task-goroutine-only).
	align ckpt.Aligner
}

// emitter is a task's lane: the state its goroutine owns and its output
// side — a private set of gates (and through them, SPSC rings to every
// consumer), an rng, an amortized clock and the QoS reporter.
// The lane is its own flush timer: it never parks past the earliest
// deadline of its buffers (parkFor) and runs a flush pass once that
// deadline has passed (serviceFlush). Only the atomics the master and
// the scraper touch (flushReq, flushes, barrierReq, replayReq,
// emitCount) and the task's parker cross goroutines.
type emitter struct {
	t     *task
	gates []*gate
	rng   *rand.Rand
	ctx   Context

	// reporter aggregates the lane's task-level QoS; lastFlush is when
	// maybeReport last shipped it.
	reporter  *qos.TaskReporter
	lastFlush time.Time

	// now is the lane's amortized wall clock (emit reads it instead of
	// calling time.Now per record). A worker refreshes it at every clock
	// read of handleBatch (batch arrival, batch end, and inside a batch
	// once clockBudget of work has accumulated) and per park wakeup; a
	// source once per pacing round.
	now time.Time

	// rwPending holds consume times of sampled records awaiting the next
	// write (read-write task latency).
	rwPending []time.Time

	// curSpan is the trace span of the record currently being processed
	// (or emitted, for sources); records emitted meanwhile inherit it.
	curSpan *obs.Span
	// curSrcID/curOffset carry the lineage of the record currently being
	// processed so emitted descendants inherit it.
	curSrcID  int32
	curOffset uint64

	// emitCount counts a source's emissions (per-task gauge on /metrics).
	emitCount atomic.Int64

	// poolHint spreads this lane's batchPool traffic across pool shards.
	poolHint int

	// flushReq is the master's request for a flush pass (requestFlush);
	// flushes counts the passes the lane ran because a deadline lapsed.
	flushReq atomic.Bool
	flushes  atomic.Int64

	// Processing-guarantee state (sources, nil otherwise). srcLog is the
	// task's offset authority and replay buffer.
	srcLog *ckpt.Log[logEntry]

	// barrierReq asks the source to inject the barrier with that id,
	// replayReq to re-emit its log's uncommitted suffix (master-written,
	// task-goroutine-consumed).
	barrierReq    atomic.Int64
	replaying     bool
	replayReq     atomic.Bool
	replayScratch []logEntry
	// lingerStart bounds the post-schedule wait for a final commit.
	lingerStart time.Time

	// timer bounds the lane goroutine's parks, idle or blocked on a full
	// ring (parkTimer). It sits last: among the hot fields above it
	// shifted their lines and cost steady-adaptive ≈ 4 % CPU per record.
	timer *time.Timer
}

// idleSpins is how many empty polls a consumer burns (with Gosched)
// before parking when it predicts a wait shorter than spinWait.
const idleSpins = 64

// shipSpins is how many failed pushes a producer burns (with Gosched)
// before it parks on the full ring (await).
const shipSpins = 128

// ringDepth is the most batches a ring holds, whatever QueueCapacity
// allows. Once a consumer is the bottleneck a deeper ring buys no
// throughput, only queue wait (64 batches held saturate-fixed's p50 at
// ≈ 6 ms). A shallower one starves the consumer: a producer woken at
// half the ring must push before the consumer drains the other half,
// and a woken goroutine often waits for its waker's P to yield; on 2
// vCPUs a depth of 2 cost that pipeline 9–11 % of its throughput, where
// 8 kept it.
const ringDepth = 8

// newTask builds a task and its lane (wiring happens in the execution).
func newTask(ex *execution, id model.TaskID, udf UDF, src *SourceSpec, seed int64) *task {
	t := &task{
		id:      id,
		ex:      ex,
		udf:     udf,
		src:     src,
		pk:      parker{ch: make(chan struct{}, 1)},
		inChans: make(map[chanKey]*inChannel),
		rw:      ex.modes[id.Vertex] == model.LatencyReadWrite,
		stride:  1,
	}
	empty := make([]*channelRef, 0)
	t.in.Store(&empty)
	t.inEdges = ex.spec.graph.InEdges(id.Vertex)
	e := &emitter{
		t:        t,
		rng:      newRand(seed),
		reporter: qos.NewTaskReporter(id),
		poolHint: int(ex.poolSeq.Add(1)),
	}
	e.ctx = Context{e: e}
	if src != nil || !t.rw {
		// A source's production cost and a read-ready task's service time
		// are its task latency; the reporter derives the one from the
		// other.
		e.reporter.ReadReady()
	}
	outs := ex.spec.graph.OutEdges(id.Vertex)
	e.gates = make([]*gate, len(outs))
	for pos, ek := range outs {
		g := newGate(ek, pos, id.Index, ex.spec.graph.Edge(ek).Pattern, ex.cfg.MaxBatchRecords, &ex.dropNoConsumer, &ex.pool)
		g.poolHint = e.poolHint
		switch ex.spec.edgeBatching(ek) {
		case BatchingFixed:
			g.setDeadline(noDeadline)
		case BatchingInstant:
			// Stays at 0; SetDeadlines never touches non-adaptive edges.
		default:
			if d, ok := ex.deadlines[ek]; ok {
				g.setDeadline(d)
			}
		}
		e.gates[pos] = g
	}
	if ex.guarantee.Enabled() && src != nil {
		// A crashed predecessor's log comes back with its uncommitted
		// suffix, which this source replays first.
		var reattached bool
		e.srcLog, reattached = ex.logs.Attach(id.Vertex)
		e.replayReq.Store(reattached)
	}
	t.lane = e
	if ex.guarantee.Enabled() && src == nil && len(outs) == 0 {
		t.dedup = ex.dedups[id.Vertex]
	}
	return t
}

// inputs returns the current in-channel set (lock-free read).
func (t *task) inputs() []*channelRef { return *t.in.Load() }

// addInput registers a producer's channel with this consumer (master,
// wiring time).
func (t *task) addInput(ref *channelRef) {
	t.inMu.Lock()
	cur := *t.in.Load()
	next := make([]*channelRef, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ref
	t.in.Store(&next)
	t.inMu.Unlock()
}

// pruneClosedRings drops rings whose producer exited and whose buffer
// is drained (consumer goroutine), bounding the poll scan under churn.
func (t *task) pruneClosedRings() {
	t.inMu.Lock()
	cur := *t.in.Load()
	kept := make([]*channelRef, 0, len(cur))
	for _, ref := range cur {
		if ref.ring.Closed() && ref.ring.Empty() {
			continue
		}
		kept = append(kept, ref)
	}
	t.in.Store(&kept)
	t.inMu.Unlock()
}

// pending reports whether any in-ring holds a batch.
func (t *task) pending() bool {
	for _, ref := range t.inputs() {
		if !ref.ring.Empty() {
			return true
		}
	}
	return false
}

// ended reports whether the task's input has ended: no producer will be
// wired to it again, and every ring into it is closed and drained. A
// producer closes its ring after its last push, so a ring seen closed
// and then empty stays empty; the other order could miss a last push.
func (t *task) ended() bool {
	if !t.draining.Load() && !t.final.Load() {
		return false
	}
	for _, ref := range t.inputs() {
		if !ref.ring.Closed() || !ref.ring.Empty() {
			return false
		}
	}
	return true
}

// inputReady is a worker's park predicate: a batch in any in-ring, a
// flush request for its lane, or the end of its input.
func (t *task) inputReady() bool {
	return t.pending() || t.lane.flushReq.Load() || t.ended()
}

// requestFlush asks the task goroutine for a flush pass over its gates
// (master only: deadline changes, and a scale-down, whose removed rings
// the pass closes).
func (e *emitter) requestFlush() {
	e.flushReq.Store(true)
	e.t.pk.wake()
}

// emit routes a record into the edgeIdx-th gate, shipping due batches.
// It runs on the emitter's goroutine and may block under backpressure.
// Time comes from the emitter's amortized clock, not a per-record
// time.Now(). rec is the caller's copy: emit stamps its lineage and
// span in place, and the gate copies it into its buffer.
func (e *emitter) emit(edgeIdx int, rec *Record) {
	if edgeIdx < 0 || edgeIdx >= len(e.gates) {
		return
	}
	if rec.span == nil {
		rec.span = e.curSpan
	}
	if e.srcLog != nil {
		if !e.replaying {
			// Fresh source emission: assign the next offset and buffer the
			// record for replay. Replayed records keep their original
			// lineage and are not re-logged.
			rec.srcID = e.srcLog.ID()
			logged := logEntry{rec: *rec, edge: int32(edgeIdx)}
			logged.rec.span = nil // replays re-trace nothing; don't pin spans
			rec.offset = e.srcLog.Append(logged)
		}
	} else if rec.srcID == 0 {
		// Worker emission: descendants inherit the lineage of the record
		// being processed (zero outside Process, e.g. timer emissions,
		// which are genuinely new data and stay untracked).
		rec.srcID, rec.offset = e.curSrcID, e.curOffset
	}
	now := e.now
	// A write completes read-write latency measurement.
	if len(e.rwPending) > 0 {
		for _, tc := range e.rwPending {
			e.reporter.RecordTaskLatency(now.Sub(tc).Seconds())
		}
		e.rwPending = e.rwPending[:0]
	}
	e.ship(e.gates[edgeIdx].push(rec, now))
}

// ship pushes shipments into the addressees' rings. A full ring is
// backpressure: the producer spins briefly, then parks (await) until
// the consumer has drained it halfway. A consumer that died unblocks the
// producer via its closed ring; those records are counted as lost and
// their batch — which never left this goroutine — returns to the pool.
func (e *emitter) ship(shipments []shipment) {
	for i := range shipments {
		s := &shipments[i]
		r := s.ref.ring
		if r == nil {
			// Refs without rings only exist in gate-level tests.
			e.t.ex.lostRecords.Add(int64(len(s.b.items)))
			e.t.ex.pool.put(s.b.poolHint, s.b.items)
			continue
		}
		seen := false
		for spins := 0; ; spins++ {
			if r.Push(s.b) {
				s.ref.to.pk.wake()
				break
			}
			if r.Closed() {
				e.t.ex.lostRecords.Add(int64(len(s.b.items)))
				e.t.ex.pool.put(s.b.poolHint, s.b.items)
				break
			}
			if spins < shipSpins {
				runtime.Gosched()
			} else {
				seen = e.await(r, seen)
			}
		}
	}
}

// await parks the producer on the full ring r until the consumer has
// drained it to half its capacity (channelRef.popped), r closes,
// the master asks the lane for something, or a measurement interval
// passes. Sustained backpressure can hold the lane here for whole
// intervals, so each wakeup flushes its due interval reports: freshness
// gating must not blind the scaler to the very chain that is saturated.
// A request cannot be served before the batch in hand ships; once the
// lane has woken for it (seen, returned updated), it no longer cuts a
// park short, so a pending request cannot turn the wait into a spin.
func (e *emitter) await(r *ring.SPSC[batch], seen bool) bool {
	seen = seen || e.requested()
	r.Block()
	e.t.pk.park(func() bool { return e.unblocked(r, seen) }, e.parkTimer(), e.t.ex.cfg.MeasurementInterval, nil)
	r.Unblock()
	e.now = time.Now()
	e.maybeReport(e.now)
	return seen || e.requested()
}

// unblocked is a producer's park predicate while it waits on ring r
// (await): room in r, r closed, or a request not yet seen.
func (e *emitter) unblocked(r *ring.SPSC[batch], seen bool) bool {
	return r.Room() || r.Closed() || (!seen && e.requested())
}

// parkTimer is the lane goroutine's one park timer (scan and pace make
// it on entry and stop it on exit).
func (e *emitter) parkTimer() *time.Timer {
	if e.timer == nil {
		e.timer = time.NewTimer(time.Hour)
	}
	return e.timer
}

// nextDue returns when the lane's oldest buffered record under a finite
// deadline reaches it; ok is false when no buffer waits on a deadline.
func (e *emitter) nextDue() (at time.Time, ok bool) {
	for _, g := range e.gates {
		if t, has := g.NextDue(g.deadline()); has && (!ok || t.Before(at)) {
			at, ok = t, true
		}
	}
	return at, ok
}

// parkFor caps a park of d at the lane's next flush deadline, seen from
// now, so no buffered record outwaits its deadline on a parked lane.
func (e *emitter) parkFor(d time.Duration, now time.Time) time.Duration {
	if at, ok := e.nextDue(); ok {
		d = min(d, at.Sub(now))
	}
	return d
}

// serviceFlush is the lane's flush servicing between scans or pacing
// rounds: a pass when the master asked for one, or once now has reached
// the lane's earliest deadline (lane goroutine).
func (e *emitter) serviceFlush(now time.Time) {
	if !e.flushReq.Swap(false) {
		if at, ok := e.nextDue(); !ok || now.Before(at) {
			return
		}
		e.flushes.Add(1)
	}
	for _, g := range e.gates {
		e.ship(g.due(now))
	}
}

// drainGates force-flushes all buffers (shutdown, barriers).
func (e *emitter) drainGates(now time.Time) {
	for _, g := range e.gates {
		e.ship(g.drainAll(now))
	}
}

// closeOutRings ends every ring this emitter could still push into, the
// posted ones and the current set (taskDone, under ex.mu, clean exit or
// crash). Consumers prune the closed rings once drained; idempotent.
func (e *emitter) closeOutRings() {
	for _, g := range e.gates {
		for _, ref := range append(g.takeGone(), g.Consumers()...) {
			ref.end()
		}
	}
}

// forwardBarrier ships the barrier to every consumer of every gate.
func (e *emitter) forwardBarrier(id int64, now time.Time) {
	for _, g := range e.gates {
		e.ship(g.barrierShipments(id, now))
	}
}
