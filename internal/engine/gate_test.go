package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
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
