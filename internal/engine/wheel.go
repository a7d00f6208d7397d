package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// flushWheel is the execution's single timer wheel for batch flush
// deadlines, replacing the per-task FlushTick tickers of the
// channel-era engine. Emitters arm an entry when a gate buffer goes
// empty→non-empty under a finite deadline; the wheel goroutine wakes
// the owning emitter when the deadline lapses (one fire sets the
// emitter's flushReq flag and pokes its park channel). With nothing
// armed the wheel goroutine blocks on its notify channel — an idle
// topology costs zero timer wakeups (see TestWheelIdleTopologyNoFires).
//
// Entries hash into wheelSlots buckets to spread arm-side mutex
// contention across producers; while anything is armed the wheel ticks
// once per resolution and sweeps every bucket, firing lapsed entries.
// A cursor-walked wheel (only visiting the slots between the last and
// current tick) would strand sub-resolution deadlines: a 200 µs
// deadline under a 1 ms tick usually hashes into the tick being (or
// just) processed, and would then wait a whole lap. Sweeping is cheap
// here because armFlush dedups arms per emitter — the armed population
// is bounded by the live emitter count, control-plane sized, so a
// sweep is 64 mutex hops over a handful of entries. N armed deadlines
// still cost one timer tick per resolution, not N tickers. Entries are
// one-shot: after a fire the emitter re-arms at the earliest residual
// deadline if buffers remain (emitter.flushDue).
type flushWheel struct {
	res   time.Duration
	slots []wheelSlot

	// armed counts outstanding entries; the wheel parks at zero.
	armed atomic.Int64
	// fires counts delivered fires (regression guard: must stay zero on
	// an idle topology).
	fires atomic.Int64

	// parkedNs accumulates time the wheel goroutine spent blocked on
	// notify with nothing armed; parkedSince holds the start of the
	// in-progress park (0 while ticking). Both are written only by the
	// wheel goroutine and read by the data-plane sampler, which adds the
	// in-progress park so the parked fraction stays honest across an
	// interval the wheel slept through entirely.
	parkedNs    atomic.Int64
	parkedSince atomic.Int64

	notify chan struct{}
	quit   chan struct{}
}

type wheelSlot struct {
	mu      sync.Mutex
	entries []wheelEntry
}

type wheelEntry struct {
	atNs int64
	e    *emitter
}

const wheelSlots = 64

func newFlushWheel(res time.Duration) *flushWheel {
	return &flushWheel{
		res:    res,
		slots:  make([]wheelSlot, wheelSlots),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
}

// arm schedules a fire for emitter e at atNs (unix nanos). Callable
// from any producer goroutine; duplicate arms for one emitter are
// allowed (fires are idempotent — a spurious flushDue on an empty gate
// is a no-op).
func (w *flushWheel) arm(e *emitter, atNs int64) {
	s := &w.slots[(atNs/int64(w.res))%wheelSlots]
	s.mu.Lock()
	s.entries = append(s.entries, wheelEntry{atNs: atNs, e: e})
	s.mu.Unlock()
	if w.armed.Add(1) == 1 {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// run is the wheel goroutine: park while nothing is armed, otherwise
// tick once per resolution and sweep for lapsed entries.
func (w *flushWheel) run() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		if w.armed.Load() == 0 {
			w.parkedSince.Store(time.Now().UnixNano())
			select {
			case <-w.notify:
			case <-w.quit:
				return
			}
			w.parkedNs.Add(time.Now().UnixNano() - w.parkedSince.Load())
			w.parkedSince.Store(0)
		}
		timer.Reset(w.res)
		select {
		case <-timer.C:
		case <-w.quit:
			return
		}
		w.advance(time.Now().UnixNano())
	}
}

func (w *flushWheel) stop() { close(w.quit) }

// advance fires every entry whose deadline lapsed (wheel goroutine
// only). All buckets are swept — see the type comment for why that
// beats a cursor walk for this population.
func (w *flushWheel) advance(nowNs int64) {
	for i := range w.slots {
		s := &w.slots[i]
		s.mu.Lock()
		if len(s.entries) == 0 {
			s.mu.Unlock()
			continue
		}
		kept := s.entries[:0]
		for _, ent := range s.entries {
			if ent.atNs <= nowNs {
				w.fire(ent.e)
			} else {
				kept = append(kept, ent)
			}
		}
		for j := len(kept); j < len(s.entries); j++ {
			s.entries[j] = wheelEntry{}
		}
		s.entries = kept
		s.mu.Unlock()
	}
}

// wheelStats is the sampler's snapshot of the wheel's counters. The
// parked accumulator includes the park in progress (if any) up to
// nowNs; a wake racing the two loads can double-count that park by at
// most one sampling interval, which is noise at gauge granularity.
type wheelStats struct {
	fires    int64
	armed    int64
	parkedNs int64
}

// stats samples the wheel counters; callable from any goroutine.
func (w *flushWheel) stats(nowNs int64) wheelStats {
	parked := w.parkedNs.Load()
	if since := w.parkedSince.Load(); since != 0 && nowNs > since {
		parked += nowNs - since
	}
	return wheelStats{fires: w.fires.Load(), armed: w.armed.Load(), parkedNs: parked}
}

// fire delivers one lapsed entry: clear the emitter's armed marker,
// raise its flush request and wake its owning goroutine.
func (w *flushWheel) fire(e *emitter) {
	w.armed.Add(-1)
	w.fires.Add(1)
	e.armedUntil.Store(0)
	e.requestFlush()
}
