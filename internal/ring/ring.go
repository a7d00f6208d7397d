// Package ring provides a bounded, lock-free single-producer /
// single-consumer queue — the engine data plane's replacement for
// mutex-guarded Go channels on the record hot path (see DESIGN.md
// "Engine data plane").
//
// The discipline is strictly SPSC: exactly one goroutine may call Push
// and exactly one may call Pop. Close and Drain relax that. Close ends
// the stream when the producer calls it after its last Push, or any
// goroutine once the producer goroutine has exited: then no Push follows
// it, and a consumer that sees Closed and after that Empty has popped
// every item there will be. Any goroutine may also Close after the
// consumer died, to turn the producer's pushes into failures; a Push
// racing that Close can still land (see Push). Drain uses a CAS on the
// head index so concurrent supervisors can reclaim leftovers with each
// item handed to exactly one caller (after the consumer goroutine has
// exited).
//
// A producer that parks on a full ring says so (Block); the consumer's
// Drained then tells it when to wake the producer: once the ring has
// drained to half its capacity.
package ring

import (
	"sync/atomic"
)

// cacheLinePad separates the producer- and consumer-owned indices so
// they never share a cache line (false sharing halves SPSC throughput).
type cacheLinePad struct{ _ [64]byte }

// SPSC is a bounded single-producer/single-consumer ring buffer.
// Capacity is rounded up to a power of two so index wrapping is a mask.
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent, which subsumes the acquire/release pairing a classic
// SPSC queue needs — the producer's tail.Store publishes the slot
// write, the consumer's tail.Load acquires it, and symmetrically for
// head on the recycle path.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    cacheLinePad
	head atomic.Uint64 // next slot to pop (consumer-advanced)
	// cachedTail is the consumer's snapshot of tail: the consumer only
	// re-reads the shared tail when the snapshot says "empty", so a
	// drained-then-refilled ring costs one shared load per batch of
	// pushes instead of one per pop.
	cachedTail uint64
	// pops counts successful Pop calls. Consumer-owned: updated with a
	// plain-load-then-atomic-store (no RMW, so no cross-core cacheline
	// ping beyond the line the consumer already owns); the sampler's
	// atomic Load observes a possibly slightly stale but never torn
	// value. Drain does not count — it is the teardown reclaim path.
	pops atomic.Uint64

	_    cacheLinePad
	tail atomic.Uint64 // next slot to push (producer-advanced)
	// cachedHead mirrors cachedTail for the producer's full check.
	cachedHead uint64
	// Producer-owned counters, same single-writer store discipline as
	// pops. pushFails counts Block calls — the producer gave up on the
	// full ring and parks, the backpressure stall signal; a rejected Push
	// alone counts nothing. highWater tracks the maximum occupancy bound
	// observed at publish time (tail+1-cachedHead; cachedHead ≤ head so
	// this bounds true occupancy from above, and the full check bounds it
	// by Cap).
	pushes    atomic.Uint64
	pushFails atomic.Uint64
	highWater atomic.Uint64

	// The read-mostly line both ends load: closed, and blocked
	// (producer-set when it parks, consumer-cleared when it wakes it,
	// loaded after every Pop).
	_       cacheLinePad
	closed  atomic.Bool
	blocked atomic.Bool
}

// Stats is a sampled snapshot of the ring's hot-path counters. Each
// field is read with an individual atomic load — never torn — but the
// fields are not one instant's values (the producer may land a push
// between two loads). One ordering does hold in every sample:
// Pops ≤ Pushes, because Push counts an item before publishing it and
// Stats loads Pops before Pushes. Counters are cumulative; samplers
// diff consecutive snapshots to derive rates.
type Stats struct {
	Pushes    uint64 // successful Push calls
	PushFails uint64 // Block calls: the producer parked on a full ring (stalls)
	Pops      uint64 // successful Pop calls
	HighWater uint64 // max observed occupancy bound, ≤ Cap()
}

// New builds a ring with capacity ≥ capacity rounded up to a power of
// two (minimum 2).
func New[T any](capacity int) *SPSC[T] {
	n := uint64(2)
	for int(n) < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: n - 1}
}

// Cap returns the ring's (rounded) capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the current occupancy (racy snapshot; exact only when
// both ends are quiescent).
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push enqueues v. It returns false — without enqueueing — when the
// ring is full or closed; the producer decides whether to spin, park
// (Block), or drop. Producer goroutine only.
//
// Closed-ness is checked before the publish, so at most one Push that
// raced a concurrent Close can still land in the buffer; Drain (which
// teardown runs after Close) reclaims it.
func (r *SPSC[T]) Push(v T) bool {
	if r.closed.Load() {
		return false
	}
	tail := r.tail.Load()
	if tail-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if tail-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = v
	// Counted before it is published: the consumer can pop (and count) an
	// item the instant tail moves, and a sampler must never see more pops
	// than pushes.
	r.pushes.Store(r.pushes.Load() + 1)
	r.tail.Store(tail + 1)
	if occ := tail + 1 - r.cachedHead; occ > r.highWater.Load() {
		r.highWater.Store(occ)
	}
	return true
}

// Pop dequeues the oldest item. The second return is false when the
// ring is empty. Consumer goroutine only (use Drain from supervisors).
func (r *SPSC[T]) Pop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if head == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero
	r.head.Store(head + 1)
	r.pops.Store(r.pops.Load() + 1)
	return v, true
}

// Room reports whether a Push would find the ring below its capacity
// (producer goroutine, or a racy snapshot elsewhere).
func (r *SPSC[T]) Room() bool {
	return r.tail.Load()-r.head.Load() < uint64(len(r.buf))
}

// Block is the producer's notice that it parks on this full ring: it
// counts one stall and asks the consumer for a wake once the ring has
// drained to half its capacity (Drained). The producer publishes it
// before its park's re-check and withdraws it with Unblock once awake.
// Producer goroutine only.
func (r *SPSC[T]) Block() {
	r.pushFails.Store(r.pushFails.Load() + 1)
	r.blocked.Store(true)
}

// Unblock withdraws a Block the consumer has not answered (producer
// goroutine, awake again).
func (r *SPSC[T]) Unblock() { r.blocked.Store(false) }

// Drained is the consumer's check after each Pop: it reports whether
// the producer is blocked and the ring has drained to half its
// capacity, and then takes the request, so that each Block wakes the
// producer once. The consumer wakes the producer when it reports true.
// Its fast path is one flag load. Consumer goroutine only.
func (r *SPSC[T]) Drained() bool {
	return r.blocked.Load() && r.Len() <= len(r.buf)/2 && r.blocked.CompareAndSwap(true, false)
}

// Stats samples the hot-path counters. Callable from any goroutine;
// see the Stats type for the (non-)consistency contract.
func (r *SPSC[T]) Stats() Stats {
	pops := r.pops.Load() // before pushes: every counted pop's push is already counted
	return Stats{
		Pushes:    r.pushes.Load(),
		PushFails: r.pushFails.Load(),
		Pops:      pops,
		HighWater: r.highWater.Load(),
	}
}

// Close marks the ring closed: subsequent Pushes fail. Pop and Drain
// keep returning whatever is already buffered. Idempotent; callable
// from any goroutine.
func (r *SPSC[T]) Close() { r.closed.Store(true) }

// Closed reports whether Close was called.
func (r *SPSC[T]) Closed() bool { return r.closed.Load() }

// Empty reports whether the ring currently holds nothing.
func (r *SPSC[T]) Empty() bool { return r.tail.Load() == r.head.Load() }

// Drain pops one item like Pop, but advances head with a CAS so that
// multiple concurrent Drain callers each receive a buffered item at
// most once. Teardown path: the master drains a crashed consumer's
// rings (mirroring the dead-consumer channel drain of the pre-ring
// engine) after Close has stopped the producer and the consumer
// goroutine has exited — Drain must not race Pop, whose head advance
// is a plain store.
func (r *SPSC[T]) Drain() (T, bool) {
	var zero T
	for {
		head := r.head.Load()
		if head == r.tail.Load() {
			return zero, false
		}
		v := r.buf[head&r.mask]
		if r.head.CompareAndSwap(head, head+1) {
			// The slot is intentionally not zeroed here: a concurrent Pop
			// may already have claimed a later index and zeroing buf[head]
			// after a lost CAS would clobber a live slot one lap later.
			// Drained rings are teardown garbage; the GC reclaims them
			// wholesale.
			return v, true
		}
	}
}
