package engine

import (
	"runtime"
	"sync"
	"time"

	"nephelix/internal/obs"
)

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
	abort := make(chan struct{})
	var firstPanic any
	var panicOnce sync.Once
	var wg sync.WaitGroup
	for _, e := range t.emitters {
		e.abort = abort
		wg.Add(1)
		go func(e *emitter) {
			defer wg.Done()
			defer e.closeOutRings()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { firstPanic = r; close(abort) })
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

// spinWait is the wait below which every engine loop spins instead of
// parking: a source shard compares its schedule's next emission with
// it, a consumer its predicted input gap (idleGap). Parking on a shorter
// wait costs more than the wait: OS timer granularity would cap a
// source's emission rate at a few thousand rounds per second, and a
// wake costs a consumer up to hundreds of µs on a loaded host.
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
	// park blocks for d, or until the lane's next flush deadline or the
	// master wakes it.
	park := func(d time.Duration) { e.pk.park(e.requested, timer, e.parkFor(d, e.now), nil, t.quit, e.abort) }

	next := time.Now()
	for {
		if e.stopped() {
			return
		}
		now := time.Now()
		e.now = now
		e.serviceGuarantees(now)
		e.serviceFlush(now)
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
					park(ex.cfg.FlushTick)
					continue
				}
				e.drainGates(now)
				return
			}
			park(50 * time.Millisecond)
			continue
		}
		if e.srcLog != nil && e.srcLog.Full() {
			// Replay buffer at capacity: pause emission until a commit
			// prunes it — backpressure, never loss.
			e.srcLog.Stall()
			park(ex.cfg.FlushTick)
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
			e.reporter.RecordArrivalN(elapsed, 0, burst) // the execution's base, like task.account
			e.reporter.RecordServiceN(per, burst)
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
			park(wait)
		} else if burst == 0 {
			runtime.Gosched()
		}
	}
}

// requested is a source lane's park predicate: the master asked it for
// something.
func (e *emitter) requested() bool {
	return e.flushReq.Load() || e.barrierReq.Load() != 0 || e.replayReq.Load() || e.t.draining.Load()
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
	if src := c.e.t.src; src != nil && src.SampleProbability > 0 {
		p = src.SampleProbability
	}
	return c.e.rng.Float64() < p
}
