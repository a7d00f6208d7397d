package engine

import (
	"runtime"
	"time"

	"nephelix/internal/obs"
)

// spinWait is the wait below which every engine loop spins instead of
// parking: a source compares its schedule's next emission with
// it, a consumer its predicted input gap (idleGap). Parking on a shorter
// wait costs more than the wait: a source's thread sleep overshoots by
// ≈ 65–85 µs (the kernel's timer slack and the syscall), a runtime timer
// park lasts ≈ 1.07 ms however short (DESIGN.md), and a wake costs a
// consumer up to hundreds of µs on a loaded host.
const spinWait = 100 * time.Microsecond

// napWait is the wait below which a source sleeps its OS thread instead
// of parking on the runtime timer, when nothing else bounds the wait
// (pace): the timer would make a 100 µs–2 ms wait last ≈ 1.07–2.2 ms, a
// thread sleep lasts the wait plus the kernel's timer slack.
const napWait = 2 * time.Millisecond

// maxBurst bounds how many emissions one pacing round performs, so
// guarantees servicing and flush requests stay responsive under
// saturating schedules.
const maxBurst = 1024

// pace is a source task's pacing loop (task goroutine). Emission is
// batched: every round emits all records that came due since the last
// round (up to maxBurst), with per-emission schedule jitter, so the
// per-round timer and clock overhead amortizes across the burst — this
// is what breaks the one-timer-wakeup-per-record ceiling of the old
// source loop. Behind schedule the source does not try to catch up a
// backlog (next = now), which keeps backpressure semantics intact.
func (t *task) pace() {
	ex := t.ex
	e := t.lane
	sched := t.src.Schedule

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	resetTimer(timer, time.Hour)
	// park blocks for d, or until the lane's next flush deadline or the
	// master wakes it.
	park := func(d time.Duration) { t.pk.park(e.requested, timer, e.parkFor(d, e.now), nil) }
	// nap waits until the schedule's next emission, which no flush
	// deadline precedes and no waker needs to cut short: the master's
	// requests are flags the next round reads, at most napWait later. It
	// yields first, so a consumer this round's pushes readied runs before
	// the sleep holds the thread, and counts as a park.
	nap := func(until time.Time) {
		t.pk.parks.Add(1)
		runtime.Gosched()
		if d := time.Until(until); d > 0 {
			sleepThread(d)
		}
	}

	next := time.Now()
	for {
		now := time.Now()
		e.now = now
		e.serviceGuarantees(now)
		e.serviceFlush(now)
		if t.draining.Load() {
			e.drainGates(now)
			return
		}
		elapsed := ex.since(now)
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
			park(ex.cfg.FlushTick)
			continue
		}
		// The task's share of the schedule: the vertex rate divides by its
		// live tasks.
		n := ex.parallelismOf(t.id.Vertex)
		if n < 1 {
			n = 1
		}
		perEmit := float64(n) / rate
		burst := 0
		for burst < maxBurst && !next.After(now) {
			e.curSpan = ex.cfg.Tracer.StartSpan(ex.since(e.now))
			t.src.Emit(&e.ctx)
			e.curSpan = nil
			burst++
			// ±10% jitter keeps source tasks out of lockstep.
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
			if wait < napWait && e.parkFor(wait, now) == wait && !e.requested() {
				nap(next)
			} else {
				park(wait)
			}
		} else if burst == 0 {
			runtime.Gosched()
		}
	}
}

// requested is a source's park predicate: the master asked it for
// something.
func (e *emitter) requested() bool {
	return e.flushReq.Load() || e.barrierReq.Load() != 0 || e.replayReq.Load() || e.t.draining.Load()
}

// serviceGuarantees handles a source's pending replay and barrier
// requests (task goroutine). Replay runs first: a barrier injected
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
// with the original offsets (task goroutine). Downstream this looks
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
		l := &e.replayScratch[i]
		l.rec.offset = first + uint64(i)
		e.emit(int(l.edge), &l.rec)
		*l = logEntry{} // drop payload references
	}
	e.replaying = false
	e.t.ex.replayedRecords.Add(int64(n))
	e.t.ex.recordLifecycle(obs.KindReplay, obs.Lifecycle{
		Vertex: e.t.id.Vertex, Task: e.t.id.String(), CommittedOffsets: uint64(n),
	})
	e.t.ex.cfg.Telemetry.AddReplayed(e.t.ex.since(now), int64(n))
}

// lingerForCommit reports whether an exhausted source should keep
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
