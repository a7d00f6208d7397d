package engine

import (
	"runtime"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

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

// maxPopsPerScan caps how many batches one worker scan takes from a
// single input ring before moving on, so a saturated producer cannot
// starve other rings or the between-scan flush/report servicing.
const maxPopsPerScan = 64

// maybeReport flushes the lane's interval reports to the master: its
// task report and, on a worker, its inbound channels' (lane goroutine).
func (e *emitter) maybeReport(now time.Time) {
	t := e.t
	if now.Sub(e.lastFlush) < t.ex.cfg.MeasurementInterval {
		return
	}
	e.lastFlush = now
	t.ex.offerReport(taskReportMsg{report: e.reporter.Flush()})
	for _, ch := range t.inChans {
		rep := ch.rep.Flush()
		if !rep.Empty() {
			t.ex.offerReport(channelReportMsg{report: rep})
		}
	}
}

// handleBatch processes one delivered batch, ships the leftover of every
// slot the batch filled (settle) and recycles its slice. The wall clock
// is read at batch arrival, at batch end, and in between only when about
// clockBudget of work has accumulated: every t.stride records, and after
// any record whose own timing is used (a trace span, a sampled
// read-write record). Each read accounts the n records since the previous
// one together (account), so counts, Σ service, Σ interarrival and busyNs
// are exact while the n samples of a group share its mean. A UDF slower
// than the budget keeps stride 1 and is timed record by record.
func (t *task) handleBatch(b batch) {
	now := time.Now()
	e := t.lane
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
			t.ex.lostRecords.Add(int64(len(b.items) - done))
			panic(r)
		}
	}()
	for i := range b.items {
		rec := &b.items[i]
		if t.dedup != nil && rec.srcID != 0 && !t.dedup.Admit(rec.srcID, rec.offset) && t.ex.suppressDups {
			// Replay duplicate under exactly-once: suppressed before the
			// UDF sees it, but still counted for the panic-remainder
			// accounting.
			done++
			continue
		}
		e.curSpan = rec.span
		e.curSrcID, e.curOffset = rec.srcID, rec.offset
		t.udf.Process(&e.ctx, *rec)
		done++
		n++
		if n >= t.stride || rec.span != nil || (t.rw && rec.Sampled) {
			last, n = t.account(&b, ch, rec, last, n), 0
		}
	}
	if n > 0 {
		t.account(&b, ch, nil, last, n)
	}
	for _, g := range e.gates {
		e.ship(g.settle(e.now))
	}
	e.curSpan = nil
	e.curSrcID, e.curOffset = 0, 0
	t.ex.pool.put(b.poolHint, b.items)
}

// account reads the clock and books the n records processed since the
// read at `last` as n equal shares of the elapsed time: n evenly spaced
// arrivals, n service samples. rec is the
// record that forced the read when its own timing is wanted (span hop,
// read-write sample), nil at batch end. It sets the next stride from the
// per-record time just measured, flushes due interval reports — a slow
// UDF batch can span several measurement intervals, and the master's
// freshness gating must keep seeing the task — and returns the read.
func (t *task) account(b *batch, ch *inChannel, rec *Record, last time.Time, n int) time.Time {
	end := time.Now()
	e := t.lane
	e.now = end
	group := end.Sub(last)
	t.busyNs.Add(int64(group))
	per := group.Seconds() / float64(n)
	start := end.Add(-group / time.Duration(n)) // of the last record's share
	// Arrival times count from the execution's start: a float64 of Unix
	// seconds resolves 238 ns, coarser than the sub-µs spacing within a
	// group.
	e.reporter.RecordArrivalN(t.ex.since(last), per, n)
	e.reporter.RecordServiceN(per, n)
	wait := start.Sub(b.shipped).Seconds() // ship to service start
	e.reporter.RecordQueueWaitN(wait, n)
	if t.rw && rec != nil && rec.Sampled && len(e.rwPending) < 64 {
		e.rwPending = append(e.rwPending, start)
	}
	if rec != nil && rec.span != nil {
		// Per-hop decomposition: time buffered at the producer, no
		// separable network transit (in-process rings), then the wait.
		batchDelay := b.shipped.Sub(b.oldestBuf).Seconds()
		endS := t.ex.since(end)
		rec.span.Hop(t.id.Vertex, ch.edgeName, batchDelay, 0, wait, per)
		t.ex.cfg.Telemetry.ObserveHop(endS, t.id.Vertex, ch.edgeName, batchDelay, 0, wait, per)
		if len(e.gates) == 0 {
			rec.span.Finish(endS)
			t.ex.cfg.Telemetry.ObserveE2E(endS, endS-rec.span.Start())
		}
	}
	t.stride = int(min(max(int64(clockBudget)*int64(n)/max(int64(group), 1), 1), maxStride))
	e.maybeReport(end)
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

// idleGap predicts how long a consumer will wait for its next input: an
// EWMA, weight 1/8, of the idle gaps it observed, each from the scan
// that found its rings empty to the ship time of the next batch. The
// ship stamp is the producer's clock, so the prediction excludes the
// consumer's own wake latency and parking cannot feed itself. The zero
// value predicts no wait.
type idleGap struct{ ewma time.Duration }

// observe folds one idle gap into the prediction. A batch stamped before
// the episode began (stale producer clock) counts as no gap, and no gap
// counts for more than gapCap.
func (g *idleGap) observe(gap time.Duration) {
	g.ewma += (min(max(gap, 0), gapCap) - g.ewma) / 8
}

// gapCap bounds one gap's weight in the prediction, so that a single
// host stall cannot flip a consumer on fast input to parking: from a
// prediction of 10 µs it takes two gaps of gapCap or longer in a row to
// reach spinWait.
const gapCap = 4 * spinWait

// park reports whether the predicted wait is one to park on right away:
// spinWait or longer, the threshold sources apply to their schedule.
func (g idleGap) park() bool { return g.ewma >= spinWait }

// run is the task goroutine: a source's pacing loop or a worker's scan
// loop under one supervisor. A panicking UDF or Emit does not crash the
// process: the supervisor defer (LIFO: it runs before taskDone closes
// the task's rings) reports the crash to the master, which unroutes the
// dead task and schedules a backoff-delayed replacement.
func (t *task) run() {
	defer t.ex.taskDone(t)
	defer func() {
		if r := recover(); r != nil {
			t.ex.reportFailure(t, r)
		}
	}()
	if t.src != nil {
		t.pace()
	} else {
		t.scan()
	}
}

// scan is a worker's loop (task goroutine): poll the input rings
// round-robin, process, then — unless the idle gap it predicts is
// spinWait or longer — spin briefly, and park.
func (t *task) scan() {
	e := t.lane

	var timerC <-chan time.Time
	if tu, ok := t.udf.(TimerUDF); ok {
		timerTicker := time.NewTicker(tu.TimerInterval())
		timerC = timerTicker.C
		defer timerTicker.Stop()
	}
	defer e.parkTimer().Stop()
	e.now = time.Now()
	spins := 0
	// idleSince is when the first scan of the current idle episode found
	// the rings empty (the task's last clock read); zero while busy.
	var idleSince time.Time
	for {
		worked := false
		sawClosed := false
		for _, ref := range t.inputs() {
			r := ref.ring
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
				ref.popped()
				if !idleSince.IsZero() {
					t.idle.observe(b.shipped.Sub(idleSince))
					idleSince = time.Time{}
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
		if timerC != nil {
			select {
			case <-timerC:
				e.now = time.Now()
				t.udf.(TimerUDF).OnTimer(&e.ctx)
			default:
			}
		}
		if e.flushReq.Load() {
			e.now = time.Now() // the master's request comes at any time
		}
		e.serviceFlush(e.now)
		e.maybeReport(e.now)
		if t.ended() {
			// End of input: every ring into the task is closed and
			// drained, so nothing more will come. Close the open window,
			// ship every buffer and leave; taskDone closes the task's
			// rings for the next vertex.
			e.now = time.Now()
			if timerC != nil {
				t.udf.(TimerUDF).OnTimer(&e.ctx)
			}
			e.drainGates(e.now)
			return
		}
		if worked {
			spins = 0
			continue
		}
		if idleSince.IsZero() {
			idleSince = e.now
		}
		spins++
		if spins < idleSpins && !t.idle.park() {
			runtime.Gosched()
			continue
		}
		// Park, unless a batch, a flush request or the end of input raced
		// the decision, and wake by the lane's next flush deadline at the
		// latest.
		e.now = time.Now()
		fired := t.pk.park(t.inputReady, e.parkTimer(), e.parkFor(t.ex.cfg.MeasurementInterval, e.now), timerC)
		e.now = time.Now()
		if fired {
			t.udf.(TimerUDF).OnTimer(&e.ctx)
		}
		spins = 0
	}
}

// onBarrier aligns one inbound checkpoint barrier (worker goroutine).
// Counting alignment: the task forwards the barrier once markers from
// every live upstream producer task arrived, without blocking any
// ring (at-least-once alignment — replay duplicates are the dedup
// sinks' job). Expected counts come from the coordinator, which arms
// them at injection; barriers of superseded checkpoints simply never
// complete.
func (t *task) onBarrier(b batch) {
	id := b.barrier
	now := time.Now()
	aligned, stall := t.align.Arrive(id, t.ex.since(now), t.ex.coord.Expected(id, t))
	if !aligned {
		return
	}
	e := t.lane
	e.now = now
	// Flush buffered pre-barrier output before forwarding so the marker
	// stays behind everything this task derived from pre-barrier input.
	e.drainGates(now)
	e.forwardBarrier(id, now)
	t.ex.roundDone(t.ex.coord.AckWorker(id, t, stall))
}
