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

// task is one running task of the cooperative data plane. Its input
// side is a set of SPSC rings (one per upstream producer emitter); its
// output side is one or more emitters, each owning a private set of
// gates and the rings into every downstream consumer.
//
// Workers and sinks have exactly one emitter, owned by the task
// goroutine. Source tasks have Config.SourceShards emitters, each run
// by its own shard goroutine with a private pacing loop, rng, QoS
// reporter and (under guarantees) offset log — so one source task can
// saturate several cores without any cross-shard synchronization on
// the emit path.
type task struct {
	id  model.TaskID
	ex  *execution
	udf UDF
	src *SourceSpec

	// emitters is the output side; immutable after newTask.
	emitters []*emitter

	// inRings is the consumer-side ring set (copy-on-write: the master
	// appends at wiring time, the consumer goroutine prunes closed+empty
	// rings after producer exits). inMu serializes rewrites only.
	inRings atomic.Pointer[[]*ring.SPSC[batch]]
	inMu    sync.Mutex

	// wakeCh + parked implement the consumer's park/wake protocol:
	// the consumer publishes parked=true, re-checks its rings, then
	// blocks on wakeCh; producers push, then check parked and poke
	// wakeCh. Sequential consistency of sync/atomic makes the lost-
	// wakeup interleaving impossible (either the producer sees parked
	// and wakes, or the consumer's re-check sees the push).
	wakeCh chan struct{}
	parked atomic.Bool

	// draining is set by the master after the task left all routing
	// tables; the task exits once its input has been idle for DrainIdle.
	draining atomic.Bool
	// quit force-stops the task (execution shutdown).
	quit chan struct{}
	// dead closes when the task goroutine has exited (crash or drain), so
	// producers spinning on its full input rings get out instead of
	// waiting on a consumer that will never pop again.
	dead chan struct{}
	// shardAbort (sources only) stops sibling shard goroutines after one
	// of them panicked, so the task dies — and restarts — as a unit.
	shardAbort chan struct{}
	abortOnce  sync.Once

	// processed counts handled records (quiescence detection).
	processed atomic.Int64

	// Consumer-side reporters, owned by the task goroutine; interval
	// aggregates are sent to the master over ex.reports. Source shards
	// carry their own reporters (emitter.reporter). inChans holds one
	// entry per inbound channel, keyed by what every batch carries.
	reporter  *qos.TaskReporter
	inChans   map[chanKey]*inChannel
	lastFlush time.Time

	// inEdges is the vertex's inbound edge list, snapshotted once so edge
	// resolution never re-allocates it from the graph.
	inEdges []model.EdgeKey

	// rw caches whether the vertex measures read-write task latency.
	rw bool

	// now is the task's amortized wall clock: refreshed at every clock
	// read of handleBatch (batch arrival, batch end, and inside a batch
	// once clockBudget of work has accumulated) and per park wakeup —
	// never per emitted record. Task-goroutine-only state.
	now time.Time

	// stride is how many records handleBatch processes between clock
	// reads: clockBudget over the per-record time it measured last,
	// clamped to [1, maxStride]. Task-goroutine-only state.
	stride int

	// dedup is the sink vertex's shared dedup table (guarantees only).
	dedup *ckpt.DedupTable

	// align counts inbound checkpoint barriers (task-goroutine-only).
	align ckpt.Aligner
	// idle predicts the consumer's next wait for input, which decides
	// spin or park (run; task-goroutine-only).
	idle idleGap
	// The alignment state shrank by 16 bytes when it moved to ckpt; idle
	// and this pad keep the struct at 368 bytes, i.e. in the 384-byte
	// allocation class whose objects start on a cache line. One class
	// down, consecutive tasks share a line between one's
	// busyNs/parks/wakes and the next one's read-mostly head (measured on
	// steady-adaptive, EXPERIMENTS.md). TestTaskSizeClass pins the class.
	_ [8]byte

	// busyNs integrates UDF time for utilization reporting.
	busyNs atomic.Int64

	// parks counts consumer park transitions (entered blocked state);
	// wakes counts producer pokes delivered to a parked consumer. Both
	// are summed per consumer vertex by the data-plane scraper and sit
	// off the per-record path: a park ends an idle episode, a wake only
	// fires on the parked transition.
	parks atomic.Int64
	wakes atomic.Int64

	// poolHint spreads this task's batchPool traffic across pool shards.
	poolHint int

	ctx Context
}

// emitter is one producer lane of a task: a private set of gates (and
// through them, SPSC rings to every consumer), an rng, an amortized
// clock and the flush-wheel plumbing. Everything here is owned by
// exactly one goroutine — the task goroutine for workers/sinks, the
// shard goroutine for source shards — except the atomics the wheel and
// master touch (flushReq, armedUntil, barrierReq, emitCount).
type emitter struct {
	t     *task
	shard int
	gates []*gate
	rng   *rand.Rand

	// reporter aggregates this lane's QoS; for worker emitters it is the
	// task's reporter (same goroutine), for source shards a private one.
	reporter  *qos.TaskReporter
	lastFlush time.Time

	// now is the lane's amortized wall clock (emit reads it instead of
	// calling time.Now per record).
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
	wakeCh     chan struct{}
	parked     *atomic.Bool
	ownParked  atomic.Bool

	// Processing-guarantee state (source shards, nil otherwise). srcLog
	// is this shard's offset authority and replay buffer — each shard
	// owns a disjoint offset range because each owns a distinct log.
	srcLog *ckpt.Log[logEntry]
	// parks/wakes mirror the task-level counters for source-shard lanes
	// (worker emitters never park themselves; their wakes land here when
	// the wheel pokes the shared task channel).
	parks atomic.Int64
	wakes atomic.Int64

	// barrierReq asks the shard to inject the barrier with that id,
	// replayReq to re-emit its log's uncommitted suffix (master-written,
	// shard-goroutine-consumed).
	barrierReq    atomic.Int64
	replaying     bool
	replayReq     atomic.Bool
	replayScratch []logEntry
	// lingerStart bounds the post-schedule wait for a final commit.
	lingerStart time.Time

	ctx Context
}

// idleSpins is how many empty polls a consumer burns (with Gosched)
// before parking on its wake channel when it predicts a wait shorter
// than spinWait.
const idleSpins = 64

// shipSpins is how many failed pushes a producer burns before backing
// off with a short sleep (sustained backpressure).
const shipSpins = 128

// newTask builds a task and its emitters (wiring happens in the
// execution).
func newTask(ex *execution, id model.TaskID, udf UDF, src *SourceSpec, seed int64) *task {
	t := &task{
		id:       id,
		ex:       ex,
		udf:      udf,
		src:      src,
		quit:     make(chan struct{}),
		dead:     make(chan struct{}),
		wakeCh:   make(chan struct{}, 1),
		reporter: qos.NewTaskReporter(id),
		inChans:  make(map[chanKey]*inChannel),
		rw:       ex.modes[id.Vertex] == model.LatencyReadWrite,
		stride:   1,
		poolHint: int(ex.poolSeq.Add(1)),
	}
	if !t.rw {
		// A read-ready task's service time is its task latency; the
		// reporter derives the one from the other.
		t.reporter.ReadReady()
	}
	empty := make([]*ring.SPSC[batch], 0)
	t.inRings.Store(&empty)
	t.inEdges = ex.spec.graph.InEdges(id.Vertex)
	shards := 1
	if src != nil {
		t.shardAbort = make(chan struct{})
		if ex.cfg.SourceShards > 1 {
			shards = ex.cfg.SourceShards
		}
	}
	outs := ex.spec.graph.OutEdges(id.Vertex)
	t.emitters = make([]*emitter, shards)
	for si := range t.emitters {
		e := &emitter{
			t:        t,
			shard:    si,
			rng:      rand.New(rand.NewSource(seed + int64(si)*104729)),
			poolHint: int(ex.poolSeq.Add(1)),
		}
		if src != nil {
			e.reporter = qos.NewTaskReporter(id)
			e.reporter.ReadReady() // a shard's production cost is its task latency
			e.wakeCh = make(chan struct{}, 1)
			e.parked = &e.ownParked
		} else {
			e.reporter = t.reporter
			e.wakeCh = t.wakeCh
			e.parked = &t.parked
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
		e.ctx = Context{t: t, e: e}
		t.emitters[si] = e
	}
	if ex.guarantee.Enabled() && src == nil && len(outs) == 0 {
		t.dedup = ex.dedups[id.Vertex]
	}
	t.ctx = Context{t: t, e: t.emitters[0]}
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

// ringsNonEmpty reports whether any in-ring currently holds a batch.
func (t *task) ringsNonEmpty() bool {
	for _, r := range t.ringsSnapshot() {
		if !r.Empty() {
			return true
		}
	}
	return false
}

// wake pokes a parked consumer (any goroutine).
func (t *task) wake() {
	if t.parked.Load() {
		t.wakes.Add(1)
		select {
		case t.wakeCh <- struct{}{}:
		default:
		}
	}
}

// wake pokes the emitter's owning goroutine (wheel fires, master
// barrier/replay requests). For worker emitters this is the task wake.
func (e *emitter) wake() {
	if e.parked.Load() {
		e.wakes.Add(1)
		select {
		case e.wakeCh <- struct{}{}:
		default:
		}
	}
}

// requestFlush asks the emitter's owning goroutine for a flush pass over
// its gates (wheel fires, deadline changes, end-of-job tail flush).
func (e *emitter) requestFlush() {
	e.flushReq.Store(true)
	e.wake()
}

// isDead reports whether the consumer's goroutine has exited.
func (t *task) isDead() bool {
	select {
	case <-t.dead:
		return true
	default:
		return false
	}
}

// quitClosed reports whether the execution force-stopped this task.
func (t *task) quitClosed() bool {
	select {
	case <-t.quit:
		return true
	default:
		return false
	}
}

// abortClosed reports whether a sibling source shard panicked.
func (t *task) abortClosed() bool {
	if t.shardAbort == nil {
		return false
	}
	select {
	case <-t.shardAbort:
		return true
	default:
		return false
	}
}

// abortShards stops all sibling shard goroutines (first panic wins).
func (t *task) abortShards() {
	t.abortOnce.Do(func() { close(t.shardAbort) })
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
				s.ref.to.wake()
				break
			}
			if r.Closed() || s.ref.to.isDead() {
				e.t.ex.lostRecords.Add(int64(len(s.b.items)))
				e.t.ex.pool.put(s.b.poolHint, s.b.items)
				break
			}
			if e.t.quitClosed() || e.t.abortClosed() {
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
					now := time.Now()
					e.now = now
					if e.t.src != nil {
						e.maybeReport(now)
					} else {
						e.t.maybeReport(now)
					}
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
