package engine

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	gatepkg "nephelix/internal/gate"
	"nephelix/internal/model"
	"nephelix/internal/ring"
)

// channelRef is one producer→consumer path of a job edge: the producer
// and consumer tasks plus the SPSC ring between them, held by the
// producer's gate and by the consumer's input set. Each ring has exactly
// one pushing goroutine (the task whose lane owns the gate holding this
// ref) and one popping goroutine (the consumer task), so the lock-free
// SPSC discipline holds by construction.
type channelRef struct {
	from, to *task
	ring     *ring.SPSC[batch]
}

// end closes the ring, then wakes its consumer: the producer pushes into
// it no more, and the consumer's input ends once every ring into it is
// closed and drained (task.ended).
func (r *channelRef) end() {
	if r.ring != nil {
		r.ring.Close()
		r.to.pk.wake()
	}
}

// cut is end's consumer-side twin: the consumer is gone (a crash), so
// the ring closes and its producer, which may be parked on it full,
// wakes to count the batch in hand as lost.
func (r *channelRef) cut() {
	r.ring.Close()
	r.from.pk.wake()
}

// popped is the consumer's step after each pop: it wakes the producer
// once the producer is blocked on the ring and the ring has drained to
// half its capacity (ring.Drained).
func (r *channelRef) popped() {
	if r.ring.Drained() {
		r.from.pk.wake()
	}
}

// gate is the engine's transport around one output gate: routing,
// batching and churn decisions are internal/gate's (embedded); this
// type turns its verdicts into shipments over rings. Buffer slices
// cycle through the execution's batchPool (see pool.go for the
// ownership contract), so the steady-state flush path allocates
// nothing. Churn policy: key buffers stranded by a consumer that left
// the routing table (scale-down or crash) are re-partitioned over the
// live consumers, so no buffered record is shipped to a removed task.
type gate struct {
	*gatepkg.Gate[*channelRef, Record, time.Time, time.Duration]

	edge     model.EdgeKey
	pos      int
	producer int

	// deadlineNs is the adaptive flush deadline (0 = instant flush,
	// noDeadline = size-only), written by the master.
	deadlineNs atomic.Int64

	// gone is the master's mailbox of the refs it removed, even ones the
	// producer never observed; catchUp takes it and closes their rings.
	gone atomic.Pointer[[]*channelRef]

	// drops points at the owning execution's no-consumer drop counter.
	drops *atomic.Int64

	// pool recycles batch slices execution-wide; poolHint spreads this
	// gate's traffic across the pool's shards.
	pool     *batchPool
	poolHint int

	// out is the reusable shipment scratch every flush entry point
	// (push, due, drainAll, barrierShipments) returns; it is valid until
	// the next gate call, which the single-producer discipline
	// guarantees is after the caller shipped it.
	out []shipment
}

// shipment is one batch addressed to one consumer.
type shipment struct {
	ref *channelRef
	b   batch
}

// noDeadline marks size-only flushing.
const noDeadline = time.Duration(math.MaxInt64)

// newGate builds a gate for a producer task.
func newGate(edge model.EdgeKey, pos, producer int, pattern model.WiringPattern, maxBatch int, drops *atomic.Int64, pool *batchPool) *gate {
	rng := newRand(int64(producer)*2654435761 + int64(pos) + 1)
	return &gate{
		Gate:     gatepkg.New[*channelRef, Record, time.Time](pattern, maxBatch, noDeadline, rng),
		edge:     edge,
		pos:      pos,
		producer: producer,
		drops:    drops,
		pool:     pool,
	}
}

// deadline returns the current flush deadline.
func (g *gate) deadline() time.Duration {
	return time.Duration(g.deadlineNs.Load())
}

// setDeadline publishes a new flush deadline (clamped at 0).
func (g *gate) setDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	g.deadlineNs.Store(int64(d))
}

// removeConsumer drops a consumer task's channel and posts it to the
// producer's mailbox (master only, under ex.mu).
func (g *gate) removeConsumer(t *task) {
	for _, ref := range g.Consumers() {
		if ref.to != t {
			continue
		}
		g.Remove(ref)
		for old := g.gone.Load(); ; old = g.gone.Load() {
			next := []*channelRef{ref}
			if old != nil {
				next = append(slices.Clip(*old), ref)
			}
			if g.gone.CompareAndSwap(old, &next) {
				break
			}
		}
	}
}

// takeGone empties the mailbox: a plain load, and a swap only when the
// master posted something.
func (g *gate) takeGone() []*channelRef {
	if g.gone.Load() == nil {
		return nil
	}
	return *g.gone.Swap(nil)
}

// push buffers a record and returns batches due for shipping (producer
// goroutine only). The caller ships them (possibly blocking).
func (g *gate) push(rec *Record, now time.Time) []shipment {
	k, v := g.Push(rec, rec.Key, 1, now, g.deadline())
	if v == 0 {
		return nil
	}
	out := g.out[:0]
	switch {
	case v&gatepkg.Flush != 0:
		out = g.take(k, now, out)
	case v&gatepkg.Dropped != 0:
		g.drops.Add(1)
	}
	if v&gatepkg.Churn != 0 {
		g.rehashStranded()
	}
	g.out = out
	return out
}

// rehashStranded applies the engine's churn policy to the key buffers
// the gate handed back (producer goroutine).
func (g *gate) rehashStranded() {
	for _, b := range g.Stranded() {
		g.drops.Add(int64(g.Rehash(b, routeRecord)))
		g.pool.put(g.poolHint, b.Recs)
	}
}

func routeRecord(r *Record) (key uint64, weight int) { return r.Key, 1 }

// take detaches slot k into shipments appended to dst. A single
// addressee takes ownership of the buffer and the gate refills from the
// pool; under broadcast the last consumer takes it and the others get
// pooled copies, all made here, before anything ships.
func (g *gate) take(k int, now time.Time, dst []shipment) []shipment {
	f := g.Take(k, g.pool.get(g.poolHint))
	if len(f.To) == 0 {
		g.drops.Add(int64(len(f.Recs)))
		g.pool.put(g.poolHint, f.Recs)
		return dst
	}
	b := batch{items: f.Recs, producer: g.producer, edgePos: g.pos, oldestBuf: f.Oldest, shipped: now, poolHint: g.poolHint}
	last := len(f.To) - 1
	for _, ref := range f.To[:last] {
		bb := b
		bb.items = append(g.pool.get(g.poolHint), f.Recs...)
		dst = append(dst, shipment{ref: ref, b: bb})
	}
	return append(dst, shipment{ref: f.To[last], b: b})
}

// due returns all shipments whose flush trigger holds at now (called
// from the producer's flush pass).
func (g *gate) due(now time.Time) []shipment {
	g.catchUp()
	return g.takeAll(g.Due(now, g.deadline()), now)
}

// drainAll force-flushes everything buffered (task shutdown, barriers).
func (g *gate) drainAll(now time.Time) []shipment {
	g.catchUp()
	return g.takeAll(g.NonEmpty(), now)
}

// settle ships the leftovers of the input batch just processed (Settle).
func (g *gate) settle(now time.Time) []shipment {
	g.catchUp()
	return g.takeAll(g.Settle(), now)
}

// catchUp observes the current consumer set and settles what it
// stranded, so the slots that follow are chosen over the live set, then
// ends the removed consumers' rings. It takes the mailbox first: a ref is
// posted after its removal, so no set observed later addresses it.
func (g *gate) catchUp() {
	gone := g.takeGone()
	g.Observe()
	g.rehashStranded()
	for _, ref := range gone {
		ref.end()
	}
}

func (g *gate) takeAll(slots []int, now time.Time) []shipment {
	out := g.out[:0]
	for _, k := range slots {
		out = g.take(k, now, out)
	}
	g.out = out
	return out
}

// barrierShipments returns one barrier batch addressed to every
// current consumer — all of them regardless of wiring pattern, because
// alignment counts producers, not partitions. The caller must drain the
// gate first so buffered pre-barrier records precede the marker in
// channel FIFO order.
func (g *gate) barrierShipments(id int64, now time.Time) []shipment {
	out := g.out[:0]
	for _, ref := range g.Consumers() {
		out = append(out, shipment{ref: ref, b: batch{
			producer: g.producer, edgePos: g.pos, barrier: id,
			oldestBuf: now, shipped: now,
		}})
	}
	g.out = out
	return out
}
