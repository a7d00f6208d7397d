// Package gate is a task's output side for one outgoing job edge: the
// producer-side batch buffers and every decision about them — which
// consumer a record is pinned to (key-based), which consumer the next
// batch goes to (rotation) or that it goes to all of them (broadcast),
// when a buffer must ship (instant, size cap reached, oldest record +
// deadline, or the leftover of a fill once the producer's input batch
// ends), and what happens to key buffers whose consumer left.
//
// The package decides and nothing else. It has no clock, no transport
// and no buffer pool: the live engine drives it with time.Time, record
// counts and SPSC rings, the simulator with virtual seconds, byte sizes
// and its event heap. A driver pushes records, is told which slot to
// flush, takes the slot (handing in the replacement buffer) and ships
// the result its own way.
//
// Concurrency: one goroutine — the producer — owns a gate's buffers and
// calls Push, Observe, Stranded, Rehash, Due, Settle, NonEmpty, Take,
// NextDue and Buffered. One control goroutine calls Add and Remove;
// Consumers is safe anywhere. The consumer list is an immutable snapshot
// swapped atomically; Push and Observe load it exactly once, and every
// other producer call acts on that last observed snapshot, so a record
// is never hashed over one consumer set and reconciled against another.
package gate

import (
	"math/rand"
	"slices"
	"sync/atomic"

	"nephelix/internal/model"
)

// Instant is a driver's time type: T is time.Time with D time.Duration
// in the engine, a float64 of virtual seconds in the simulator. The two
// methods are only called per flush check, never per record.
type Instant[T, D any] interface {
	Add(D) T
	Before(T) bool
}

// Span is a flush deadline: dl <= 0 flushes every record at once, the
// gate's Never value flushes on size only.
type Span interface{ ~int64 | ~float64 }

// Verdict is what Push tells the driver to do; zero means "buffered,
// nothing to do" and is the per-record common case.
type Verdict uint8

const (
	// Flush: the slot Push returned must ship now (Take it).
	Flush Verdict = 1 << iota
	// Dropped: there is no consumer; the record was not buffered.
	Dropped
	// Churn: the consumer set changed and left key buffers without a
	// consumer; the driver collects them with Stranded.
	Churn
)

// Batch is a detached buffer. To is who gets it: one consumer
// (rotation, key-based), all of them (broadcast, the driver copies), or
// nobody (the last consumer left; the driver accounts the loss). To
// aliases the gate's immutable snapshot and must not be modified.
type Batch[C comparable, R, T any] struct {
	To     []C
	Recs   []R
	Oldest T
	// Weight is the sum of the weights Recs were pushed with.
	Weight int
}

// snapshot is one immutable consumer list; its address is the
// generation.
type snapshot[C comparable] struct{ consumers []C }

type slot[R, T any] struct {
	recs   []R
	weight int
	oldest T
	// pushed is the weight pushed since the last Settle and filled
	// whether one of those pushes hit the size trigger; Take keeps both.
	pushed int
	filled bool
}

// Gate buffers records of type R for consumers of type C.
type Gate[C comparable, R any, T Instant[T, D], D Span] struct {
	pattern model.WiringPattern
	limit   int
	never   D
	rng     *rand.Rand

	set atomic.Pointer[snapshot[C]]

	// Producer-owned. slots is aligned with seen.consumers on key-based
	// edges and has exactly one entry otherwise.
	seen     *snapshot[C]
	slots    []slot[R, T]
	rr       int
	rrDrawn  bool
	stranded []Batch[C, R, T]
	picked   []int
}

// New builds a gate without consumers. limit is the size cap in the
// driver's weight unit, never the deadline value that means "size
// only". rng draws the rotation offsets; the gate consumes it once per
// consumer-set change, at the first rotation flush that follows.
func New[C comparable, R any, T Instant[T, D], D Span](pattern model.WiringPattern, limit int, never D, rng *rand.Rand) *Gate[C, R, T, D] {
	g := &Gate[C, R, T, D]{pattern: pattern, limit: limit, never: never, rng: rng}
	g.seen = &snapshot[C]{}
	g.set.Store(g.seen)
	if pattern != model.PatternKeyBased {
		g.slots = make([]slot[R, T], 1)
	}
	return g
}

// Add appends consumers in order (control goroutine). However many it
// is given, it copies the list once and publishes one snapshot, which
// the producer then observes as one consumer-set change; with none it
// publishes nothing.
func (g *Gate[C, R, T, D]) Add(cs ...C) {
	if len(cs) == 0 {
		return
	}
	cur := g.set.Load().consumers
	g.set.Store(&snapshot[C]{consumers: append(slices.Clip(cur), cs...)})
}

// Remove takes a consumer out of the routing table (control goroutine).
// Its key buffer, if any, is handed back by Stranded once the producer
// has observed the change.
func (g *Gate[C, R, T, D]) Remove(c C) {
	cur := g.set.Load().consumers
	if i := slices.Index(cur, c); i >= 0 {
		g.set.Store(&snapshot[C]{consumers: slices.Delete(slices.Clone(cur), i, i+1)})
	}
}

// Consumers returns the current consumer list (read-only).
func (g *Gate[C, R, T, D]) Consumers() []C { return g.set.Load().consumers }

// Push buffers *rec with weight w, stamped now, under deadline dl. key
// selects the consumer on key-based edges. k is the slot the record
// went to, meaningful with Flush.
func (g *Gate[C, R, T, D]) Push(rec *R, key uint64, w int, now T, dl D) (k int, v Verdict) {
	set := g.set.Load()
	if set != g.seen {
		v = g.observe(set)
	}
	n := len(set.consumers)
	if n == 0 {
		return 0, v | Dropped
	}
	if g.pattern == model.PatternKeyBased {
		k = int(mix64(key) % uint64(n))
	}
	s := &g.slots[k]
	if len(s.recs) == 0 {
		s.oldest = now
	}
	s.recs = append(s.recs, *rec)
	s.weight += w
	s.pushed += w
	if s.weight >= g.limit {
		s.filled = true
		v |= Flush
	} else if dl <= 0 {
		v |= Flush
	}
	return k, v
}

// Observe brings the producer's view up to date with the consumer set;
// a driver calls it before Due or NonEmpty, and after its own Add or
// Remove when producer and control are the same thread.
func (g *Gate[C, R, T, D]) Observe() {
	if set := g.set.Load(); set != g.seen {
		g.observe(set)
	}
}

// observe adopts a new snapshot: the rotation offset is re-drawn at the
// next flush (otherwise producers sweep their consumers in lockstep,
// and after a scale-up appends the same consumers to every gate all
// rotation phases cluster inside the old index range), and key buffers
// move to their consumer's new index or, if it left, to stranded.
func (g *Gate[C, R, T, D]) observe(set *snapshot[C]) (v Verdict) {
	old := g.seen.consumers
	g.seen = set
	g.rrDrawn = false
	if g.pattern != model.PatternKeyBased {
		return 0
	}
	next := make([]slot[R, T], len(set.consumers))
	for i, s := range g.slots {
		if j := slices.Index(set.consumers, old[i]); j >= 0 {
			next[j] = s
		} else if len(s.recs) > 0 {
			g.stranded = append(g.stranded, Batch[C, R, T]{To: old[i : i+1 : i+1], Recs: s.recs, Oldest: s.oldest, Weight: s.weight})
			v = Churn
		}
	}
	g.slots = next
	return v
}

// Stranded hands back the key buffers whose consumer (To[0]) left the
// last observed set; what becomes of them is the driver's policy —
// Rehash them over the live consumers, ship them to the leaving
// consumer, or count them lost. The slice is gate-owned scratch, valid
// until the next call.
func (g *Gate[C, R, T, D]) Stranded() []Batch[C, R, T] {
	out := g.stranded
	g.stranded = g.stranded[:0]
	return out
}

// Rehash re-partitions a stranded buffer over the last observed set.
// The records keep their buffered age, so the deadline still fires on
// time; a buffer pushed over the cap ships with the next Push or Due.
// route gives each record's key and weight. It returns how many records
// had no consumer left to go to.
func (g *Gate[C, R, T, D]) Rehash(b Batch[C, R, T], route func(*R) (key uint64, w int)) (dropped int) {
	n := len(g.seen.consumers)
	if n == 0 {
		return len(b.Recs)
	}
	for i := range b.Recs {
		key, w := route(&b.Recs[i])
		s := &g.slots[mix64(key)%uint64(n)]
		if len(s.recs) == 0 || b.Oldest.Before(s.oldest) {
			s.oldest = b.Oldest
		}
		s.recs = append(s.recs, b.Recs[i])
		s.weight += w
	}
	return 0
}

// Due returns the slots whose flush trigger holds at now: instant
// deadline, cap reached, or oldest record + dl lapsed. Like NonEmpty,
// the slice is scratch valid until the next call; Take does not
// invalidate it.
func (g *Gate[C, R, T, D]) Due(now T, dl D) []int {
	g.picked = g.picked[:0]
	for k := range g.slots {
		s := &g.slots[k]
		if len(s.recs) == 0 {
			continue
		}
		if dl <= 0 || s.weight >= g.limit || dl != g.never && !now.Before(s.oldest.Add(dl)) {
			g.picked = append(g.picked, k)
		}
	}
	return g.picked
}

// Settle is called by a consumer when it has finished an input batch.
// It returns the slots that, since the previous Settle, were pushed at
// least a full cap of weight, hit the size trigger and still hold
// records: the leftover of a fill that happened inside this input batch,
// which would otherwise wait for the next input batch to top it up. It
// then restarts every slot's count. A slot filled across several input
// batches (none pushed a cap) or emptied by its deadline (never hit the
// size trigger) is not returned, so neither the number of batches nor
// the deadline timing changes there. The slice is scratch as in Due.
func (g *Gate[C, R, T, D]) Settle() []int {
	g.picked = g.picked[:0]
	for k := range g.slots {
		s := &g.slots[k]
		if s.filled && s.pushed >= g.limit && len(s.recs) > 0 {
			g.picked = append(g.picked, k)
		}
		s.pushed, s.filled = 0, false
	}
	return g.picked
}

// NonEmpty returns every slot that holds records (drain).
func (g *Gate[C, R, T, D]) NonEmpty() []int {
	g.picked = g.picked[:0]
	for k := range g.slots {
		if len(g.slots[k].recs) > 0 {
			g.picked = append(g.picked, k)
		}
	}
	return g.picked
}

// Take detaches slot k for shipping, addressed within the last observed
// set, and installs fresh as the slot's empty buffer.
func (g *Gate[C, R, T, D]) Take(k int, fresh []R) Batch[C, R, T] {
	s := &g.slots[k]
	b := Batch[C, R, T]{Recs: s.recs, Oldest: s.oldest, Weight: s.weight}
	s.recs, s.weight = fresh[:0], 0
	cons := g.seen.consumers
	switch {
	case len(cons) == 0:
	case g.pattern == model.PatternKeyBased:
		b.To = cons[k : k+1 : k+1]
	case g.pattern == model.PatternBroadcast:
		b.To = cons
	default:
		if !g.rrDrawn {
			g.rr = g.rng.Intn(len(cons))
			g.rrDrawn = true
		}
		b.To = cons[g.rr : g.rr+1 : g.rr+1]
		g.rr = (g.rr + 1) % len(cons)
	}
	return b
}

// NextDue returns the earliest moment a buffered record's deadline
// lapses; ok is false when nothing is buffered or dl is not finite.
func (g *Gate[C, R, T, D]) NextDue(dl D) (at T, ok bool) {
	if dl <= 0 || dl == g.never {
		return at, false
	}
	for k := range g.slots {
		s := &g.slots[k]
		if len(s.recs) == 0 {
			continue
		}
		if t := s.oldest.Add(dl); !ok || t.Before(at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// Buffered returns the number of records held.
func (g *Gate[C, R, T, D]) Buffered() (n int) {
	for k := range g.slots {
		n += len(g.slots[k].recs)
	}
	return n
}

// mix64 is a splitmix64 finalizer used for key partitioning.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
