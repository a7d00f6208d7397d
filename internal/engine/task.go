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

// task is one running task of the cooperative data plane. The task holds
// consumer state only: its input side is a set of SPSC rings (one per
// upstream producer lane) with the per-channel QoS state, the stride,
// idle prediction, barrier alignment and dedup that reading them needs.
// Its output side is one or more emitters — lanes — each owning a
// private set of gates and the rings into every downstream consumer, and
// everything else its goroutine owns: clock, QoS reporter, Context and
// parker.
//
// A worker or sink is a task with one lane, run by the task goroutine.
// A source task has Config.SourceShards lanes, each run by its own shard
// goroutine with a private pacing loop, rng, QoS reporter and (under
// guarantees) offset log — so one source task can saturate several
// cores without any cross-shard synchronization on the emit path.
type task struct {
	// The 256 bytes are four cache lines (TestTaskSizeClass), grouped by
	// who touches them: two read-mostly lines, then the line producers
	// read (parker, dead), then the line the consumer writes per batch.
	id  model.TaskID
	ex  *execution
	udf UDF
	src *SourceSpec
	// dedup is the sink vertex's shared dedup table (guarantees only).
	dedup *ckpt.DedupTable

	// emitters is the output side; immutable after newTask.
	emitters []*emitter
	// inEdges is the vertex's inbound edge list, snapshotted once so edge
	// resolution never re-allocates it from the graph.
	inEdges []model.EdgeKey
	// inChans holds one entry per inbound channel, keyed by what every
	// batch carries; the lane's maybeReport flushes their reports.
	inChans map[chanKey]*inChannel
	// inRings is the consumer-side ring set (copy-on-write: the master
	// appends at wiring time, the consumer goroutine prunes closed+empty
	// rings after producer exits). inMu serializes rewrites only.
	inRings atomic.Pointer[[]*ring.SPSC[batch]]

	// pk is the worker lane's parker, here rather than on the emitter so
	// that a producer reaches it from its channelRef in as few loads as
	// the ring itself (ship). Unused on source tasks: each shard lane
	// parks on its own.
	pk parker
	// dead closes when the task goroutine has exited (crash or drain), so
	// producers spinning on its full input rings get out instead of
	// waiting on a consumer that will never pop again.
	dead chan struct{}
	// quit force-stops the task (execution shutdown).
	quit chan struct{}
	// draining is set by the master after the task left all routing
	// tables; the task exits once its input has been idle for DrainIdle.
	draining atomic.Bool
	// rw caches whether the vertex measures read-write task latency.
	rw   bool
	inMu sync.Mutex

	// processed counts handled records (quiescence detection).
	processed atomic.Int64
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

// emitter is one lane of a task: the state one goroutine owns — the task
// goroutine for a worker or sink, a shard goroutine for a source — and
// its output side: a private set of gates (and through them, SPSC rings
// to every consumer), an rng, an amortized clock, the QoS reporter and
// the flush-wheel plumbing. Only the atomics the wheel and master touch
// (flushReq, armedUntil, barrierReq, replayReq, emitCount) and the
// parker's waker half cross goroutines.
type emitter struct {
	t     *task
	shard int
	gates []*gate
	rng   *rand.Rand
	ctx   Context

	// pk parks this lane's goroutine: the task's own parker for a worker,
	// a private one per source shard.
	pk *parker

	// reporter aggregates the lane's task-level QoS; lastFlush is when
	// maybeReport last shipped it.
	reporter  *qos.TaskReporter
	lastFlush time.Time

	// now is the lane's amortized wall clock (emit reads it instead of
	// calling time.Now per record). A worker refreshes it at every clock
	// read of handleBatch (batch arrival, batch end, and inside a batch
	// once clockBudget of work has accumulated) and per park wakeup; a
	// source shard once per pacing round.
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

	// emitCount counts this shard's source emissions (per-shard balance
	// gauge on /metrics).
	emitCount atomic.Int64

	// poolHint spreads this lane's batchPool traffic across pool shards.
	poolHint int

	// Flush-wheel plumbing: gates arm the wheel on empty→non-empty
	// transitions; a fire raises flushReq and wakes the owner.
	flushReq   atomic.Bool
	armedUntil atomic.Int64

	// Processing-guarantee state (source shards, nil otherwise). srcLog
	// is this shard's offset authority and replay buffer — each shard
	// owns a disjoint offset range because each owns a distinct log.
	srcLog *ckpt.Log[logEntry]

	// barrierReq asks the shard to inject the barrier with that id,
	// replayReq to re-emit its log's uncommitted suffix (master-written,
	// shard-goroutine-consumed).
	barrierReq    atomic.Int64
	replaying     bool
	replayReq     atomic.Bool
	replayScratch []logEntry
	// lingerStart bounds the post-schedule wait for a final commit.
	lingerStart time.Time
	// abort (source shards) closes when a sibling lane panicked, so the
	// task dies — and restarts — as a unit; nil on a worker.
	abort chan struct{}
}

// idleSpins is how many empty polls a consumer burns (with Gosched)
// before parking when it predicts a wait shorter than spinWait.
const idleSpins = 64

// shipSpins is how many failed pushes a producer burns before backing
// off with a short sleep (sustained backpressure).
const shipSpins = 128

// newTask builds a task and its lanes (wiring happens in the execution).
func newTask(ex *execution, id model.TaskID, udf UDF, src *SourceSpec, seed int64) *task {
	t := &task{
		id:      id,
		ex:      ex,
		udf:     udf,
		src:     src,
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
		pk:      parker{ch: make(chan struct{}, 1)},
		inChans: make(map[chanKey]*inChannel),
		rw:      ex.modes[id.Vertex] == model.LatencyReadWrite,
		stride:  1,
	}
	empty := make([]*ring.SPSC[batch], 0)
	t.inRings.Store(&empty)
	t.inEdges = ex.spec.graph.InEdges(id.Vertex)
	shards := 1
	if src != nil && ex.cfg.SourceShards > 1 {
		shards = ex.cfg.SourceShards
	}
	outs := ex.spec.graph.OutEdges(id.Vertex)
	t.emitters = make([]*emitter, shards)
	for si := range t.emitters {
		e := &emitter{
			t:        t,
			shard:    si,
			rng:      rand.New(rand.NewSource(seed + int64(si)*104729)),
			pk:       &t.pk,
			reporter: qos.NewTaskReporter(id),
			poolHint: int(ex.poolSeq.Add(1)),
		}
		e.ctx = Context{e: e}
		if src != nil {
			e.pk = &parker{ch: make(chan struct{}, 1)}
		}
		if src != nil || !t.rw {
			// A source shard's production cost and a read-ready task's
			// service time are its task latency; the reporter derives the
			// one from the other.
			e.reporter.ReadReady()
		}
		e.gates = make([]*gate, len(outs))
		for pos, ek := range outs {
			g := newGate(ek, pos, id.Index, ex.spec.graph.Edge(ek).Pattern, ex.cfg.MaxBatchRecords, &ex.dropNoConsumer, &ex.pool)
			g.owner = e
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
			// suffix, which this shard replays first.
			var reattached bool
			e.srcLog, reattached = ex.logs.Attach(id.Vertex)
			e.replayReq.Store(reattached)
		}
		t.emitters[si] = e
	}
	if ex.guarantee.Enabled() && src == nil && len(outs) == 0 {
		t.dedup = ex.dedups[id.Vertex]
	}
	return t
}

// ringsSnapshot returns the current in-ring set (lock-free read).
func (t *task) ringsSnapshot() []*ring.SPSC[batch] { return *t.inRings.Load() }

// addInRing registers a producer's ring with this consumer (master,
// wiring time).
func (t *task) addInRing(r *ring.SPSC[batch]) {
	t.inMu.Lock()
	cur := *t.inRings.Load()
	next := make([]*ring.SPSC[batch], len(cur)+1)
	copy(next, cur)
	next[len(cur)] = r
	t.inRings.Store(&next)
	t.inMu.Unlock()
}

// pruneClosedRings drops rings whose producer exited and whose buffer
// is drained (consumer goroutine), bounding the poll scan under churn.
func (t *task) pruneClosedRings() {
	t.inMu.Lock()
	cur := *t.inRings.Load()
	kept := make([]*ring.SPSC[batch], 0, len(cur))
	for _, r := range cur {
		if r.Closed() && r.Empty() {
			continue
		}
		kept = append(kept, r)
	}
	t.inRings.Store(&kept)
	t.inMu.Unlock()
}

// inputReady is a worker's park predicate: a batch in any in-ring, or a
// flush request for its lane.
func (t *task) inputReady() bool {
	for _, r := range t.ringsSnapshot() {
		if !r.Empty() {
			return true
		}
	}
	return t.emitters[0].flushReq.Load()
}

// requestFlush asks the emitter's owning goroutine for a flush pass over
// its gates (wheel fires, deadline changes, end-of-job tail flush).
func (e *emitter) requestFlush() {
	e.flushReq.Store(true)
	e.pk.wake()
}

// stopped reports whether the lane's goroutine must stop: the execution
// force-stopped the task, or a sibling source lane panicked.
func (e *emitter) stopped() bool { return closed(e.t.quit) || closed(e.abort) }

// closed reports whether ch is closed, without blocking (false for nil).
// One channel per call keeps it a non-blocking receive, not a select.
func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// emit routes a record into the edgeIdx-th gate, shipping due batches.
// It runs on the emitter's goroutine and may block under backpressure.
// Time comes from the emitter's amortized clock, not a per-record
// time.Now().
func (e *emitter) emit(edgeIdx int, rec Record) {
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
			logged := logEntry{rec: rec, edge: int32(edgeIdx)}
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
	e.ship(e.gates[edgeIdx].push(&rec, now))
}

// ship pushes shipments into the addressees' rings, spinning (then
// briefly sleeping) on full rings — backpressure. A consumer that died
// unblocks the producer via its closed ring or dead channel; those
// records are counted as lost and their batch — which never left this
// goroutine — returns to the pool.
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
		spins := 0
		for {
			if r.Push(s.b) {
				s.ref.to.pk.wake()
				break
			}
			if r.Closed() || closed(s.ref.to.dead) {
				e.t.ex.lostRecords.Add(int64(len(s.b.items)))
				e.t.ex.pool.put(s.b.poolHint, s.b.items)
				break
			}
			if e.stopped() {
				return
			}
			spins++
			if spins < shipSpins {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
				// Sustained backpressure can pin this goroutine here for
				// whole measurement intervals; keep flushing interval
				// reports so freshness gating doesn't blind the scaler to
				// the very vertex chain that is saturated.
				if spins%512 == 0 {
					e.now = time.Now()
					e.maybeReport(e.now)
				}
			}
		}
	}
}

// armFlush arms the execution's flush wheel for this emitter at the
// given deadline, unless an earlier arm is already outstanding
// (producer goroutine; the wheel clears armedUntil at fire).
func (e *emitter) armFlush(at time.Time) {
	w := e.t.ex.wheel
	if w == nil {
		return
	}
	atNs := at.UnixNano()
	for {
		cur := e.armedUntil.Load()
		if cur != 0 && cur <= atNs {
			return
		}
		if e.armedUntil.CompareAndSwap(cur, atNs) {
			w.arm(e, atNs)
			return
		}
	}
}

// flushDue ships batches whose deadline expired and re-arms the wheel
// at the earliest residual deadline.
func (e *emitter) flushDue(now time.Time) {
	var nextAt time.Time
	for _, g := range e.gates {
		e.ship(g.due(now))
		if at, ok := g.NextDue(g.deadline()); ok && (nextAt.IsZero() || at.Before(nextAt)) {
			nextAt = at
		}
	}
	if !nextAt.IsZero() {
		e.armFlush(nextAt)
	}
}

// drainGates force-flushes all buffers (shutdown, barriers).
func (e *emitter) drainGates(now time.Time) {
	for _, g := range e.gates {
		e.ship(g.drainAll(now))
	}
}

// closeOutRings closes every ring this emitter feeds (producer exit,
// clean or panicking — the defer runs either way). Consumers prune the
// closed rings once drained; idempotent.
func (e *emitter) closeOutRings() {
	for _, g := range e.gates {
		for _, ref := range g.Consumers() {
			if ref.ring != nil {
				ref.ring.Close()
			}
		}
	}
}

// forwardBarrier ships the barrier to every consumer of every gate.
func (e *emitter) forwardBarrier(id int64, now time.Time) {
	for _, g := range e.gates {
		e.ship(g.barrierShipments(id, now))
	}
}

// nowSeconds converts a wall-clock time to float64 seconds.
func nowSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / 1e9
}
