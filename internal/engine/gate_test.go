package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/ring"
)

// testGate builds a bare gate wired to nobody, for direct unit tests of
// the engine's side of the gate — churn policy, drop accounting, pooled
// broadcast copies — with no running tasks involved. The routing and
// batching decisions themselves are tested in internal/gate.
func testGate(pattern model.WiringPattern, maxBatch int) (*gate, *atomic.Int64, *batchPool) {
	drops := &atomic.Int64{}
	pool := &batchPool{}
	g := newGate(model.EdgeKey{Source: "a", Target: "b"}, 0, 0, pattern, maxBatch, drops, pool)
	return g, drops, pool
}

// TestGateStrandedKeyBuffers is the regression test for the scale-down
// routing bug: key buffers pinned to a removed consumer must be
// re-partitioned over the live consumer set, never shipped to the
// removed task.
func TestGateStrandedKeyBuffers(t *testing.T) {
	g, _, _ := testGate(model.PatternKeyBased, 1024)
	g.setDeadline(time.Minute)
	keep, gone := &task{}, &task{}
	refKeep := &channelRef{to: keep}
	refGone := &channelRef{to: gone}
	g.Add(refKeep)
	g.Add(refGone)

	now := time.Now()
	const n = 64
	for i := 0; i < n; i++ {
		if out := g.push(&Record{Key: uint64(i), Value: i}, now); len(out) != 0 {
			t.Fatalf("push %d flushed early: %d shipments", i, len(out))
		}
	}

	g.removeConsumer(gone)

	// The moved records must keep their buffered age: a flush tick at
	// exactly now+deadline has to ship everything. If reconciliation
	// reset the age, nothing stranded would be due yet.
	out := g.due(now.Add(time.Minute))
	total := 0
	for _, s := range out {
		if s.ref.to == gone {
			t.Fatalf("batch of %d records shipped to removed consumer", len(s.b.items))
		}
		if s.ref != refKeep {
			t.Fatalf("shipment addressed to unknown ref %p", s.ref)
		}
		total += len(s.b.items)
	}
	if total != n {
		t.Fatalf("flushed %d records after scale-down, want all %d", total, n)
	}
	if left := g.Buffered(); left != 0 {
		t.Fatalf("%d records left behind after full flush", left)
	}
}

// TestGateStrandedKeyBuffersNoConsumers covers the degenerate tail of the
// same bug: when the last consumer leaves, stranded records are dropped
// and counted, not kept pinned forever.
func TestGateStrandedKeyBuffersNoConsumers(t *testing.T) {
	g, drops, _ := testGate(model.PatternKeyBased, 1024)
	g.setDeadline(time.Minute)
	gone := &task{}
	g.Add(&channelRef{to: gone})

	now := time.Now()
	for i := 0; i < 16; i++ {
		g.push(&Record{Key: uint64(i)}, now)
	}
	g.removeConsumer(gone)
	if out := g.drainAll(now.Add(time.Second)); len(out) != 0 {
		t.Fatalf("drainAll shipped %d batches with no consumers", len(out))
	}
	if got := drops.Load(); got != 16 {
		t.Fatalf("dropped %d records, want 16", got)
	}
	if g.Buffered() != 0 {
		t.Fatal("stranded key buffers survived reconciliation")
	}
}

// TestGateBroadcastOwnership is the regression test for the broadcast
// aliasing bug: every consumer must receive its own backing array, and
// none may be one the gate goes on appending to (pre-fix, the last
// consumer was handed the gate's live buffer, so the next push — or,
// under pooling, a recycle — corrupted that consumer's view).
func TestGateBroadcastOwnership(t *testing.T) {
	g, _, _ := testGate(model.PatternBroadcast, 1024)
	g.setDeadline(time.Minute)
	refs := []*channelRef{{to: &task{}}, {to: &task{}}, {to: &task{}}}
	for _, r := range refs {
		g.Add(r)
	}

	now := time.Now()
	const n = 8
	for i := 0; i < n; i++ {
		g.push(&Record{Key: uint64(i), Value: i}, now)
	}

	out := g.drainAll(now.Add(time.Second))
	if len(out) != len(refs) {
		t.Fatalf("broadcast produced %d shipments, want %d", len(out), len(refs))
	}
	seen := make(map[*Record]bool)
	for _, s := range out {
		if len(s.b.items) != n {
			t.Fatalf("shipment has %d records, want %d", len(s.b.items), n)
		}
		head := &s.b.items[0]
		if seen[head] {
			t.Fatal("two consumers share a batch backing array")
		}
		seen[head] = true
		for i, rec := range s.b.items {
			if rec.Value != i {
				t.Fatalf("record %d has value %v, want %d", i, rec.Value, i)
			}
		}
	}
	// The gate's next buffer is none of the shipped ones.
	g.push(&Record{Value: -1}, now)
	for _, s := range out {
		for i, rec := range s.b.items {
			if rec.Value != i {
				t.Fatalf("a later push wrote into a shipped batch: record %d = %v", i, rec.Value)
			}
		}
	}
}

// TestGateConcurrentConsumerChurn runs a producer (push/due/drainAll)
// against a master goroutine adding and removing consumers, under every
// wiring pattern. It exists to fail under -race if the consumer
// snapshot or the pool hand-off ever grow an unsynchronized access (the
// routing invariant under churn is asserted in internal/gate).
func TestGateConcurrentConsumerChurn(t *testing.T) {
	patterns := map[string]model.WiringPattern{
		"roundrobin": model.PatternRoundRobin,
		"broadcast":  model.PatternBroadcast,
		"keybased":   model.PatternKeyBased,
	}
	for name, pattern := range patterns {
		pattern := pattern
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, _, pool := testGate(pattern, 8)
			g.setDeadline(200 * time.Microsecond)
			anchor := &channelRef{to: &task{}}
			g.Add(anchor) // never removed: push always has a target

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // master: churn the consumer set
				defer wg.Done()
				churn := make([]*task, 0, 4)
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if len(churn) < 4 {
						tt := &task{}
						churn = append(churn, tt)
						g.Add(&channelRef{to: tt})
					} else {
						g.removeConsumer(churn[0])
						churn = churn[1:]
					}
					if i%8 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()

			// Producer: single goroutine, as the ownership contract
			// requires; consumes its own shipments back into the pool
			// (standing in for the consumer-side recycle).
			recycle := func(out []shipment) {
				for _, s := range out {
					pool.put(0, s.b.items)
				}
			}
			for i := 0; i < 4000; i++ {
				now := time.Now()
				recycle(g.push(&Record{Key: uint64(i)}, now))
				if i%16 == 0 {
					recycle(g.due(now))
				}
			}
			recycle(g.drainAll(time.Now()))
			close(done)
			wg.Wait()
		})
	}
}

// TestGateRemovalClosesOnCatchUp: a producer closes its ring into a
// removed consumer at its next catch-up and not before, wakes the
// consumer, and ships nothing to it in that pass — under every wiring
// pattern, with records buffered. A consumer the producer never observed
// (removed before any observe, or added and removed between two) is
// closed all the same.
func TestGateRemovalClosesOnCatchUp(t *testing.T) {
	newRef := func() *channelRef {
		return &channelRef{to: &task{pk: parker{ch: make(chan struct{}, 1)}}, ring: ring.New[batch](4)}
	}
	for name, pattern := range map[string]model.WiringPattern{
		"roundrobin": model.PatternRoundRobin,
		"broadcast":  model.PatternBroadcast,
		"keybased":   model.PatternKeyBased,
	} {
		t.Run(name, func(t *testing.T) {
			g, _, _ := testGate(pattern, 1024)
			g.setDeadline(time.Minute)
			keep, gone := newRef(), newRef()
			g.Add(keep)
			g.Add(gone)
			now := time.Now()
			const n = 64
			for i := 0; i < n; i++ {
				g.push(&Record{Key: uint64(i)}, now) // observes both consumers
			}
			gone.to.pk.parked.Store(true) // a parked consumer
			g.removeConsumer(gone.to)
			if gone.ring.Closed() {
				t.Fatal("the ring closed at removal, before the producer caught up")
			}
			out := g.due(now.Add(time.Minute))
			if !gone.ring.Closed() {
				t.Fatal("the ring is open after the producer caught up")
			}
			if len(gone.to.pk.ch) != 1 || gone.to.pk.wakes.Load() != 1 {
				t.Errorf("the removed consumer got %d wake tokens (%d counted), want 1", len(gone.to.pk.ch), gone.to.pk.wakes.Load())
			}
			total := 0
			for _, s := range out {
				if s.ref == gone {
					t.Fatalf("a batch of %d records shipped to the removed consumer", len(s.b.items))
				}
				total += len(s.b.items)
			}
			if total != n {
				t.Errorf("shipped %d records to the live consumer, want %d", total, n)
			}
			if keep.ring.Closed() {
				t.Error("the live consumer's ring closed")
			}

			// Added and removed between two observes.
			late := newRef()
			g.Add(late)
			g.removeConsumer(late.to)
			g.drainAll(now)
			if !late.ring.Closed() {
				t.Error("a consumer added and removed between two observes kept its ring open")
			}

			// Removed before the gate observed anything.
			fresh, _, _ := testGate(pattern, 1024)
			first := newRef()
			fresh.Add(first)
			fresh.removeConsumer(first.to)
			fresh.settle(now)
			if !first.ring.Closed() {
				t.Error("a consumer removed before any observe kept its ring open")
			}
		})
	}
}

// TestGateClosedRingNeverAddressed: while the master adds and removes
// consumers as fast as it can, no shipment the producer makes addresses
// a ring it has closed — the records would then count as lost. catchUp
// takes the mailbox before it observes, so every ref it closes was
// removed before the set it adopts; observing first would let a removal
// in between close a ring the adopted set still routes to.
func TestGateClosedRingNeverAddressed(t *testing.T) {
	for name, pattern := range map[string]model.WiringPattern{
		"roundrobin": model.PatternRoundRobin,
		"broadcast":  model.PatternBroadcast,
		"keybased":   model.PatternKeyBased,
	} {
		t.Run(name, func(t *testing.T) {
			g, _, pool := testGate(pattern, 1024)
			g.setDeadline(time.Minute)
			newRef := func() *channelRef {
				return &channelRef{to: &task{pk: parker{ch: make(chan struct{}, 1)}}, ring: ring.New[batch](4)}
			}
			g.Add(newRef()) // never removed: push always has a target

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // master: churn the consumer set
				defer wg.Done()
				var churn []*channelRef
				for {
					select {
					case <-done:
						return
					default:
					}
					if len(churn) < 2 {
						ref := newRef()
						churn = append(churn, ref)
						g.Add(ref)
					} else {
						g.removeConsumer(churn[0].to)
						churn = churn[1:]
					}
				}
			}()

			addressed := 0
			check := func(out []shipment) {
				for _, s := range out {
					if s.ref.ring.Closed() {
						addressed++
					}
					pool.put(0, s.b.items)
				}
			}
			for i := 0; i < 5000; i++ {
				now := time.Now()
				for k := 0; k < 4; k++ {
					check(g.push(&Record{Key: uint64(4*i + k)}, now))
				}
				check(g.drainAll(now))
			}
			close(done)
			wg.Wait()
			check(g.drainAll(time.Now()))
			if addressed > 0 {
				t.Errorf("%d shipments addressed a ring the producer had closed", addressed)
			}
		})
	}
}
