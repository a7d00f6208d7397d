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
	// The alignment state shrank by 16 bytes when it moved to ckpt; this
	// keeps the struct at 368 bytes, i.e. in the 384-byte allocation class
	// whose objects start on a cache line. One class down, consecutive
	// tasks share a line between one's busyNs/parks/wakes and the next
	// one's read-mostly head (measured on steady-adaptive, EXPERIMENTS.md).
	_ [16]byte

	// busyNs integrates UDF time for utilization reporting.
	busyNs atomic.Int64

	// parks counts consumer park transitions (entered blocked state);
	// wakes counts producer pokes delivered to a parked consumer. Both
	// feed the data-plane sampler and sit off the per-record path: a
	// park costs idleSpins empty scans first, a wake only fires on the
	// parked transition.
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

// chanKey identifies an inbound channel by the two fields every batch
// carries: the edge's position at the producer vertex and the
// producer's task index.
type chanKey struct{ edgePos, producer int }

// inChannel is the consumer-side state of one inbound channel, resolved
// once when the channel's first batch arrives.
type inChannel struct {
	rep      *qos.ChannelReporter
	edgeName string // EdgeKey.String(), for trace hops
}

// clockBudget is how much work handleBatch lets accumulate between two
// clock reads inside a batch, and so how stale the task's amortized
// clock can get (plus one UDF call). Flush deadlines are ≥ 1 ms.
const clockBudget = 2 * time.Microsecond

// maxStride caps the records between two clock reads however cheap the
// UDF measures, which bounds how long a UDF that suddenly turns slow
// runs unobserved.
const maxStride = 64

// idleSpins is how many empty polls a consumer or source loop burns
// (with Gosched) before parking on its wake channel.
const idleSpins = 64

// maxPopsPerScan caps how many batches one worker scan takes from a
// single input ring before moving on, so a saturated producer cannot
// starve other rings or the between-scan flush/report servicing.
const maxPopsPerScan = 64

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
				// Stays at 0; applyDeadlines never touches non-adaptive edges.
			default:
				if d, ok := ex.currentDeadline(ek); ok {
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

// ---- consumer-side ring plumbing ----

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

// ---- producer side (emitter) ----

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

// maybeReport flushes a source shard's interval report to the master.
func (e *emitter) maybeReport(now time.Time) {
	if now.Sub(e.lastFlush) < e.t.ex.cfg.MeasurementInterval {
		return
	}
	e.lastFlush = now
	rep := e.reporter.Flush()
	// The vertex's true arrival process is the union of its shards'
	// interleaved streams; scale the per-shard interarrival so the
	// task-level rate the QoS manager derives stays honest.
	if s := len(e.t.emitters); s > 1 && rep.InterarrivalCount > 0 {
		rep.InterarrivalMean /= float64(s)
	}
	e.t.ex.offerReport(taskReportMsg{report: rep})
}

// ---- consumer-side processing ----

// maybeReport flushes interval reports to the master (worker/sink
// goroutine).
func (t *task) maybeReport(now time.Time) {
	if now.Sub(t.lastFlush) < t.ex.cfg.MeasurementInterval {
		return
	}
	t.lastFlush = now
	t.ex.offerReport(taskReportMsg{report: t.reporter.Flush()})
	for _, ch := range t.inChans {
		rep := ch.rep.Flush()
		if !rep.Empty() {
			t.ex.offerReport(channelReportMsg{report: rep})
		}
	}
}

// handleBatch processes one delivered batch and recycles its slice. The
// wall clock is read at batch arrival, at batch end, and in between only
// when about clockBudget of work has accumulated: every t.stride records,
// and after any record whose own timing is used (a trace span, a sampled
// read-write record). Each read accounts the n records since the previous
// one together (account), so counts, Σ service, Σ interarrival and busyNs
// are exact while the n samples of a group share its mean. A UDF slower
// than the budget keeps stride 1 and is timed record by record.
func (t *task) handleBatch(b batch) {
	now := time.Now()
	t.now = now
	e := t.emitters[0]
	e.now = now
	// Channel-level QoS: one sample per batch against the oldest record.
	ch := t.inChannel(&b)
	ch.rep.RecordTransfer(now.Sub(b.oldestBuf).Seconds(), b.shipped.Sub(b.oldestBuf).Seconds())

	// done counts records finished with (processed or suppressed); the
	// last n of them ran after the clock read at `last` and are not yet
	// accounted.
	done, n, last := 0, 0, now
	defer func() {
		if r := recover(); r != nil {
			// A panicking UDF kills the record it was processing and the
			// unprocessed remainder of the batch; count them as lost and
			// let the supervisor defer in run() handle the crash. The
			// batch slice dies with them — never recycle a batch whose
			// consumption did not complete.
			t.processed.Add(int64(n))
			t.ex.lostRecords.Add(int64(len(b.items) - done))
			panic(r)
		}
	}()
	for i := range b.items {
		rec := &b.items[i]
		if t.dedup != nil && rec.srcID != 0 && !t.dedup.Admit(rec.srcID, rec.offset) && t.ex.suppressDups {
			// Replay duplicate under exactly-once: suppressed before the
			// UDF sees it, but still counted for quiescence detection and
			// the panic-remainder accounting.
			t.processed.Add(1)
			done++
			continue
		}
		e.curSpan = rec.span
		e.curSrcID, e.curOffset = rec.srcID, rec.offset
		t.udf.Process(&t.ctx, *rec)
		done++
		n++
		if n >= t.stride || rec.span != nil || (t.rw && rec.Sampled) {
			last, n = t.account(&b, ch, rec, last, n), 0
		}
	}
	if n > 0 {
		t.account(&b, ch, nil, last, n)
	}
	e.curSpan = nil
	e.curSrcID, e.curOffset = 0, 0
	t.ex.pool.put(b.poolHint, b.items)
}

// account reads the clock and books the n records processed since the
// read at `last` as n equal shares of the elapsed time: n evenly spaced
// arrivals, n service (and read-ready task-latency) samples. rec is the
// record that forced the read when its own timing is wanted (span hop,
// read-write sample), nil at batch end. It sets the next stride from the
// per-record time just measured, flushes due interval reports — a slow
// UDF batch can span several measurement intervals, and the master's
// freshness gating must keep seeing the task — and returns the read.
func (t *task) account(b *batch, ch *inChannel, rec *Record, last time.Time, n int) time.Time {
	end := time.Now()
	t.now = end
	e := t.emitters[0]
	e.now = end
	group := end.Sub(last)
	t.busyNs.Add(int64(group))
	t.processed.Add(int64(n))
	per := group.Seconds() / float64(n)
	start := end.Add(-group / time.Duration(n)) // of the last record's share
	// Arrival times count from the execution's start: a float64 of Unix
	// seconds resolves 238 ns, coarser than the sub-µs spacing within a
	// group.
	t.reporter.RecordArrivalN(last.Sub(t.ex.start).Seconds(), per, n)
	t.reporter.RecordServiceN(per, n)
	wait := start.Sub(b.shipped).Seconds() // ship to service start
	t.reporter.RecordQueueWaitN(wait, n)
	if !t.rw {
		t.reporter.RecordTaskLatencyN(per, n)
	} else if rec != nil && rec.Sampled && len(e.rwPending) < 64 {
		e.rwPending = append(e.rwPending, start)
	}
	if rec != nil && rec.span != nil {
		// Per-hop decomposition: time buffered at the producer, no
		// separable network transit (in-process rings), then the wait.
		batchDelay := b.shipped.Sub(b.oldestBuf).Seconds()
		endS := nowSeconds(end)
		rec.span.Hop(t.id.Vertex, ch.edgeName, batchDelay, 0, wait, per)
		t.ex.cfg.Telemetry.ObserveHop(endS, t.id.Vertex, ch.edgeName, batchDelay, 0, wait, per)
		if len(e.gates) == 0 {
			rec.span.Finish(endS)
			t.ex.cfg.Telemetry.ObserveE2E(endS, endS-rec.span.Start())
		}
	}
	t.stride = int(min(max(int64(clockBudget)*int64(n)/max(int64(group), 1), 1), maxStride))
	t.maybeReport(end)
	return end
}

// inChannel returns the consumer-side state of the channel a batch
// arrived on, creating it on the channel's first batch.
func (t *task) inChannel(b *batch) *inChannel {
	k := chanKey{b.edgePos, b.producer}
	ch := t.inChans[k]
	if ch == nil {
		ek := t.inEdge(*b)
		ch = &inChannel{
			rep:      qos.NewChannelReporter(model.ChannelID{Edge: ek, Producer: b.producer, Consumer: t.id.Index}),
			edgeName: ek.String(),
		}
		t.inChans[k] = ch
	}
	return ch
}

// inEdge reconstructs the job edge a batch arrived on from its edge
// position at the producer, matched against the consumer vertex's
// snapshotted inbound edge list.
func (t *task) inEdge(b batch) model.EdgeKey {
	for _, ek := range t.inEdges {
		if t.ex.edgePos[ek] == b.edgePos {
			return ek
		}
	}
	return model.EdgeKey{Target: t.id.Vertex}
}

// resetTimer safely re-arms a timer owned by this goroutine.
func resetTimer(tm *time.Timer, d time.Duration) {
	if !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
	tm.Reset(d)
}

// parkTimeout is how long an idle consumer sleeps before housekeeping
// (report flush, drain-idle check) when nothing wakes it.
func (t *task) parkTimeout() time.Duration {
	if t.draining.Load() {
		d := t.ex.cfg.DrainIdle / 4
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	return t.ex.cfg.MeasurementInterval
}

// run is the worker-task main loop: poll the input rings round-robin,
// process, then spin briefly and park. A panicking UDF does not crash
// the process: the supervisor defer (LIFO: it runs before taskDone)
// reports the crash to the master, which unroutes the dead task and
// schedules a backoff-delayed replacement.
func (t *task) run() {
	defer t.ex.taskDone(t)
	defer func() {
		if r := recover(); r != nil {
			t.ex.reportFailure(t, r)
		}
	}()
	e := t.emitters[0]
	defer e.closeOutRings()

	var timerC <-chan time.Time
	if tu, ok := t.udf.(TimerUDF); ok {
		timerTicker := time.NewTicker(tu.TimerInterval())
		timerC = timerTicker.C
		defer timerTicker.Stop()
	}
	parkTimer := time.NewTimer(time.Hour)
	defer parkTimer.Stop()
	resetTimer(parkTimer, time.Hour)

	t.now = time.Now()
	e.now = t.now
	lastItem := t.now
	spins := 0
	for {
		if t.quitClosed() {
			return
		}
		worked := false
		sawClosed := false
		for _, r := range t.ringsSnapshot() {
			// Bounded pops per ring per scan: a saturated producer must not
			// pin the loop inside one ring, both for fairness across inputs
			// and because timers and flush requests are only serviced
			// between scans. (Interval reports do not wait for the scan to
			// end: handleBatch flushes them at its clock reads, so the
			// master's freshness gating keeps seeing a task that is the
			// bottleneck.)
			for popped := 0; popped < maxPopsPerScan; popped++ {
				b, ok := r.Pop()
				if !ok {
					if r.Closed() {
						sawClosed = true
					}
					break
				}
				if b.barrier != 0 {
					t.onBarrier(b)
				} else {
					t.handleBatch(b)
				}
				worked = true
			}
		}
		if sawClosed {
			t.pruneClosedRings()
		}
		if worked {
			lastItem = t.now
		}
		if timerC != nil {
			select {
			case <-timerC:
				t.now = time.Now()
				e.now = t.now
				t.udf.(TimerUDF).OnTimer(&t.ctx)
			default:
			}
		}
		if e.flushReq.Swap(false) {
			t.now = time.Now()
			e.now = t.now
			e.flushDue(t.now)
		}
		t.maybeReport(t.now)
		if t.draining.Load() && t.now.Sub(lastItem) > t.ex.cfg.DrainIdle {
			// Drain leftovers that raced the idle check, flush gates, and
			// exit. Stray barriers are dropped: a draining task is outside
			// the barrier flow (the master pauses injection while any task
			// drains).
			for _, r := range t.ringsSnapshot() {
				for {
					b, ok := r.Pop()
					if !ok {
						break
					}
					if b.barrier == 0 {
						t.handleBatch(b)
					}
				}
			}
			t.now = time.Now()
			e.now = t.now
			e.drainGates(t.now)
			return
		}
		if worked {
			spins = 0
			continue
		}
		spins++
		if spins < idleSpins {
			runtime.Gosched()
			continue
		}
		// Park: publish parked, re-check the rings (the push-then-load
		// protocol makes a missed wake impossible), then block.
		t.parked.Store(true)
		if t.ringsNonEmpty() || e.flushReq.Load() {
			t.parked.Store(false)
			spins = 0
			continue
		}
		t.parks.Add(1)
		resetTimer(parkTimer, t.parkTimeout())
		onTimer := false
		select {
		case <-t.wakeCh:
		case <-timerC:
			onTimer = true
		case <-parkTimer.C:
		case <-t.quit:
			t.parked.Store(false)
			return
		}
		t.parked.Store(false)
		t.now = time.Now()
		e.now = t.now
		if onTimer {
			t.udf.(TimerUDF).OnTimer(&t.ctx)
		}
		spins = 0
	}
}

// runSource is the source-task supervisor loop: it runs the task's
// shard emitters as goroutines and dies as a unit when one panics (the
// first panic aborts the siblings and is re-raised here, so the master
// sees exactly one failure per task, as with workers).
func (t *task) runSource() {
	defer t.ex.taskDone(t)
	defer func() {
		if r := recover(); r != nil {
			t.ex.reportFailure(t, r)
		}
	}()
	var firstPanic any
	var panicOnce sync.Once
	var wg sync.WaitGroup
	for _, e := range t.emitters {
		wg.Add(1)
		go func(e *emitter) {
			defer wg.Done()
			defer e.closeOutRings()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { firstPanic = r })
					t.abortShards()
				}
			}()
			e.runSourceShard()
		}(e)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// spinWait is the pacing threshold below which a source shard busy-
// polls instead of parking on a timer: OS timer granularity would
// otherwise cap the emission rate at a few thousand rounds per second.
const spinWait = 100 * time.Microsecond

// maxBurst bounds how many emissions one pacing round performs, so
// guarantees servicing and flush requests stay responsive under
// saturating schedules.
const maxBurst = 1024

// runSourceShard is one source shard's pacing loop. Emission is
// batched: every round emits all records that came due since the last
// round (up to maxBurst), with per-emission schedule jitter, so the
// per-round timer and clock overhead amortizes across the burst — this
// is what breaks the one-timer-wakeup-per-record ceiling of the old
// source loop. Behind schedule the shard does not try to catch up a
// backlog (next = now), which keeps backpressure semantics intact.
func (e *emitter) runSourceShard() {
	t := e.t
	ex := t.ex
	start := ex.start
	sched := t.src.Schedule
	shards := len(t.emitters)

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	resetTimer(timer, time.Hour)

	next := time.Now()
	for {
		if t.quitClosed() || t.abortClosed() {
			return
		}
		now := time.Now()
		e.now = now
		e.serviceGuarantees(now)
		if e.flushReq.Swap(false) {
			e.flushDue(now)
		}
		if t.draining.Load() {
			e.drainGates(now)
			return
		}
		elapsed := now.Sub(start).Seconds()
		rate := sched.Rate(elapsed)
		if rate <= 0 {
			if elapsed >= sched.Duration() {
				if e.lingerForCommit(now) {
					// Uncommitted replay buffer: stay alive (servicing
					// barriers and replays) until a checkpoint commits it, so
					// a late downstream crash can still be replayed.
					e.park(timer, ex.cfg.FlushTick)
					continue
				}
				e.drainGates(now)
				return
			}
			e.park(timer, 50*time.Millisecond)
			continue
		}
		if e.srcLog != nil && e.srcLog.Full() {
			// Replay buffer at capacity: pause emission until a commit
			// prunes it — backpressure, never loss.
			e.srcLog.Stall()
			e.park(timer, ex.cfg.FlushTick)
			continue
		}
		// The shard's share of the schedule: the vertex rate divides by
		// live tasks × shards per task.
		n := ex.parallelismOf(t.id.Vertex)
		if n < 1 {
			n = 1
		}
		perEmit := float64(n*shards) / rate
		burst := 0
		for burst < maxBurst && !next.After(now) {
			e.curSpan = ex.cfg.Tracer.StartSpan(nowSeconds(e.now))
			t.src.Emit(&e.ctx)
			e.curSpan = nil
			burst++
			// ±10% jitter keeps source shards out of lockstep.
			jitter := 0.9 + 0.2*e.rng.Float64()
			next = next.Add(time.Duration(perEmit * jitter * float64(time.Second)))
			if e.srcLog != nil && e.srcLog.Full() {
				break
			}
		}
		if burst > 0 {
			end := time.Now()
			e.now = end
			cost := end.Sub(now)
			t.busyNs.Add(int64(cost))
			per := cost.Seconds() / float64(burst)
			e.reporter.RecordArrivalN(nowSeconds(now), 0, burst)
			e.reporter.RecordServiceN(per, burst)
			e.reporter.RecordTaskLatencyN(per, burst)
			ex.emitted.Add(int64(burst))
			t.processed.Add(int64(burst))
			e.emitCount.Add(int64(burst))
			now = end
			if next.Before(now) {
				// Backpressure or saturation pushed us behind schedule; do
				// not try to catch up a backlog.
				next = now
			}
		}
		e.maybeReport(now)
		if wait := next.Sub(now); wait > spinWait {
			e.park(timer, wait)
		} else if burst == 0 {
			runtime.Gosched()
		}
	}
}

// park blocks a source shard for d, or until the master or the flush
// wheel wakes it (barrier/replay/flush requests raised before the
// parked flag became visible are caught by the re-check).
func (e *emitter) park(timer *time.Timer, d time.Duration) {
	e.parked.Store(true)
	if e.flushReq.Load() || e.barrierReq.Load() != 0 || e.replayReq.Load() || e.t.draining.Load() {
		e.parked.Store(false)
		return
	}
	e.parks.Add(1)
	resetTimer(timer, d)
	select {
	case <-timer.C:
	case <-e.wakeCh:
	case <-e.t.quit:
	case <-e.t.shardAbort:
	}
	e.parked.Store(false)
}

// onBarrier aligns one inbound checkpoint barrier (worker goroutine).
// Counting alignment: the task forwards the barrier once markers from
// every live upstream producer emitter arrived, without blocking any
// ring (at-least-once alignment — replay duplicates are the dedup
// sinks' job). Expected counts come from the coordinator, which arms
// them at injection; barriers of superseded checkpoints simply never
// complete.
func (t *task) onBarrier(b batch) {
	id := b.barrier
	now := time.Now()
	aligned, stall := t.align.Arrive(id, t.ex.sinceStart(now), t.ex.coord.Expected(id, t))
	if !aligned {
		return
	}
	t.now = now
	e := t.emitters[0]
	e.now = now
	// Flush buffered pre-barrier output before forwarding so the marker
	// stays behind everything this task derived from pre-barrier input.
	e.drainGates(now)
	e.forwardBarrier(id, now)
	t.ex.roundDone(t.ex.coord.AckWorker(id, t, stall))
}

// serviceGuarantees handles a source shard's pending replay and barrier
// requests (shard goroutine). Replay runs first: a barrier injected
// after a recovery must trail the re-emitted records, so the commit's
// "everything below the watermark was delivered" claim covers them.
func (e *emitter) serviceGuarantees(now time.Time) {
	if e.srcLog == nil {
		return
	}
	if e.replayReq.Swap(false) {
		e.replayLog(now)
	}
	if id := e.barrierReq.Swap(0); id != 0 {
		e.drainGates(now)
		e.forwardBarrier(id, now)
		e.t.ex.roundDone(e.t.ex.coord.AckSource(id, e.srcLog.ID(), e.srcLog.Next()))
	}
}

// replayLog re-emits the log's uncommitted suffix through the gates
// with the original offsets (shard goroutine). Downstream this looks
// like fresh traffic; sinks dedup on (source, offset).
func (e *emitter) replayLog(now time.Time) {
	var first uint64
	e.replayScratch, first = e.srcLog.Uncommitted(e.replayScratch[:0])
	n := len(e.replayScratch)
	if n == 0 {
		return
	}
	e.replaying = true
	for i := range e.replayScratch {
		rec := e.replayScratch[i].rec
		rec.offset = first + uint64(i)
		e.emit(int(e.replayScratch[i].edge), rec)
		e.replayScratch[i] = logEntry{} // drop payload references
	}
	e.replaying = false
	e.t.ex.replayedRecords.Add(int64(n))
	e.t.ex.recordLifecycle(obs.KindReplay, obs.Lifecycle{
		Vertex: e.t.id.Vertex, Task: e.t.id.String(), CommittedOffsets: uint64(n),
	})
	e.t.ex.cfg.Telemetry.AddReplayed(nowSeconds(now), int64(n))
}

// lingerForCommit reports whether an exhausted source shard should keep
// running so a final checkpoint can commit its replay buffer — records
// are only safe from a downstream crash once committed. Bounded so a
// pipeline that can no longer commit (e.g. a degraded vertex) cannot
// hang shutdown forever.
func (e *emitter) lingerForCommit(now time.Time) bool {
	if e.srcLog == nil || e.srcLog.Len() == 0 {
		return false
	}
	if e.lingerStart.IsZero() {
		e.lingerStart = now
	}
	cap := 10 * e.t.ex.cfg.CheckpointInterval
	if cap < 2*time.Second {
		cap = 2 * time.Second
	}
	if now.Sub(e.lingerStart) > cap {
		e.t.ex.lingerTimeouts.Add(1)
		return false
	}
	return true
}

// Sample reports whether the next source emission should be tagged for
// latency probing.
func (c *Context) Sample() bool {
	p := 0.1
	if c.t.src != nil && c.t.src.SampleProbability > 0 {
		p = c.t.src.SampleProbability
	}
	return c.e.rng.Float64() < p
}

// nowSeconds converts a wall-clock time to float64 seconds.
func nowSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / 1e9
}
