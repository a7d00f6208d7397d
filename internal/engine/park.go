package engine

import (
	"sync/atomic"
	"time"
)

// parker is the one park/wake protocol of the engine. Its owner is one
// task goroutine, a worker's scan loop or a source's pacing loop (the
// parker sits in the task, where producers reach it through their
// channelRef), or either blocked on a full ring (emitter.await). Wakers
// are producers that pushed into the owner's rings; the consumer of the
// ring the owner is blocked on, once it has drained it halfway or died;
// and the master: a flush, barrier or replay request, a drain, the end
// of input. Nothing driven by time wakes an owner: it parks on its own
// timer, reset to no later than its next flush deadline (emitter.parkFor)
// or, blocked, to the measurement interval.
//
// The owner publishes parked, re-checks a readiness predicate, and only
// then blocks; a waker makes its work visible (a ring push, a flag
// raise), then loads parked and pokes. Sync/atomic is sequentially
// consistent, so of the owner's store→load and the waker's store→load at
// least one sees the other's store: either the re-check sees the work or
// the waker sees parked and leaves a token the owner's block consumes.
// TestParkWakeInterleavings runs every interleaving of one owner and two
// wakers through prepare and wake.
type parker struct {
	parked atomic.Bool
	ch     chan struct{} // one-slot wake token
	// parks counts blocked episodes, a source's thread sleeps (pace)
	// included; wakes counts pokes that found the owner parked, whoever
	// sent them. The data-plane scraper sums them
	// per consumer vertex and reports them per source task.
	parks atomic.Int64
	wakes atomic.Int64
}

// prepare is the owner's half up to the block: publish parked, then
// re-check ready. It reports whether the owner may block; if ready
// holds, parked is withdrawn and the owner goes back to work.
func (p *parker) prepare(ready func() bool) bool {
	p.parked.Store(true)
	if ready() {
		p.parked.Store(false)
		return false
	}
	p.parks.Add(1)
	return true
}

// park blocks the owner unless ready holds once parked is published,
// until a wake, timer (reset to d) or aux. It reports whether aux fired
// (a TimerUDF's tick).
func (p *parker) park(ready func() bool, timer *time.Timer, d time.Duration, aux <-chan time.Time) (auxFired bool) {
	if !p.prepare(ready) {
		return false
	}
	resetTimer(timer, d)
	select {
	case <-p.ch:
	case <-timer.C:
	case <-aux:
		auxFired = true
	}
	p.parked.Store(false)
	return auxFired
}

// wake is the waker's half, called once the work it announces is
// visible: poke a parked owner (any goroutine).
func (p *parker) wake() {
	if p.parked.Load() {
		p.wakes.Add(1)
		select {
		case p.ch <- struct{}{}:
		default:
		}
	}
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
