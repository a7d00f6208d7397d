package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// queueHarness drives the input side of one consumer task by hand —
// deliver, pop, retry, kill, drain, through the simulator's own
// functions — next to a reference model that keeps the queue the way
// the simulator did before it queued batch arrays under a header: one
// flat slice of item copies, each stamped with its own ship time,
// delivering channel and arrival time. The consumer is the sink of a src(1)→server(2)→sink(1)
// pipeline, so it has two inbound channels; it is pinned busy, which
// leaves every pop to the harness.
type queueHarness struct {
	t    *testing.T
	s    *Sim
	to   *simTask
	chs  []*simChannel
	span *obs.Span
	next uint64 // item id counter

	// The model: queued items, each under its own stamps, with the array
	// each lies in, stalled batches per channel, the channel counters, and
	// every array seen.
	queue    []Item
	stamps   []batchHeader
	queueArr []*Item
	stalled  [][]modelBatch
	accepted []int64
	popped   []int64
	high     []int64
	stallN   []int64
	lost     int64 // expected killedItems + droppedItems
	arrays   map[*Item]bool
}

// modelBatch is a stalled batch in the model: copies of its items, the
// time it shipped and the array the simulator holds them in.
type modelBatch struct {
	items   []Item
	shipped float64
	arr     *Item
}

const harnessCapacity = 100

func newQueueHarness(t *testing.T) *queueHarness {
	t.Helper()
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes, &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, false, 2,
		func(int) Behavior { return &testServer{mean: 1e-3} })
	cfg.QueueCapacityItems = harnessCapacity
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	var ev event
	for s.q.pop(&ev) { // the start-up events: from here on the harness alone makes events
	}
	to := s.vertices["sink"].tasks[0]
	to.busy = true
	h := &queueHarness{t: t, s: s, to: to, chs: append([]*simChannel(nil), to.in...),
		span: obs.NewTracer(1).StartSpan(0), arrays: make(map[*Item]bool)}
	if len(h.chs) != 2 {
		t.Fatalf("sink has %d inbound channels, want 2", len(h.chs))
	}
	h.stalled = make([][]modelBatch, 2)
	h.accepted, h.popped, h.high, h.stallN = make([]int64, 2), make([]int64, 2), make([]int64, 2), make([]int64, 2)
	return h
}

func arrayOf(b []Item) *Item { return &b[:1][0] }

// build makes a batch of n items as the gates build it (appended onto a
// pooled array); barrierAt < n makes that item a marker.
func (h *queueHarness) build(n, barrierAt int) []Item {
	b := h.s.getBatch()
	if cap(b) > 0 {
		delete(h.arrays, arrayOf(b)) // re-registered below unless append outgrows it
	}
	for i := 0; i < n; i++ {
		h.next++
		it := Item{EmitTime: float64(h.next), BufferTime: h.s.now - 0.5,
			Size: int32(h.next % 97), Kind: uint8(h.next), Sampled: h.next%3 == 0, Key: h.next,
			Src: int32(h.next%2 + 1), Offset: h.next}
		if h.next%2 == 0 {
			it.Origins = []float64{float64(h.next)}
		}
		if h.next%5 == 0 {
			it.span = h.span
		}
		if i == barrierAt {
			it = Item{barrier: int64(h.next), BufferTime: h.s.now}
		}
		b = append(b, it)
	}
	h.arrays[arrayOf(b)] = true
	return b
}

// deliver hands the consumer a batch of n items on channel c, shipped a
// quarter second ago.
func (h *queueHarness) deliver(c, n, barrierAt int) {
	h.s.now++
	b := h.build(n, barrierAt)
	model := modelBatch{items: append([]Item(nil), b...), shipped: h.s.now - 0.25, arr: arrayOf(b)}
	h.to.inflightIn++
	before := len(h.queue)
	h.s.deliver(batch{items: b, batchHeader: batchHeader{shipped: model.shipped, src: h.chs[c]}})
	h.delivered(c, model, before)
}

// delivered is the model's side of one delivery: lost at a disposed
// consumer, stalled at a queue that had no room for it, else accepted.
func (h *queueHarness) delivered(c int, b modelBatch, queuedBefore int) {
	switch {
	case h.to.disposed:
		h.lost += dataItems(b.items)
	case harnessCapacity-queuedBefore < len(b.items):
		h.stalled[c] = append(h.stalled[c], b)
		h.stallN[c] += int64(len(b.items))
	default:
		h.accept(c, b)
	}
}

// broadcast ships one batch to both channels through shipBatch — the
// last addressee gets the array, the other a copy, both under one ship
// time — and runs the two deliveries it schedules.
func (h *queueHarness) broadcast(n, barrierAt int) {
	h.s.now++
	b, shipped := h.build(n, barrierAt), h.s.now
	if p := h.s.batchPool; len(p) > 0 {
		delete(h.arrays, arrayOf(p[len(p)-1])) // the copy's array; re-registered on arrival
	}
	h.s.shipBatch(h.chs, b, 0)
	var ev event
	for h.s.q.pop(&ev) {
		arriving := h.s.ops[ev.n].batch
		h.arrays[arrayOf(arriving.items)] = true
		model := modelBatch{items: append([]Item(nil), arriving.items...), shipped: shipped, arr: arrayOf(arriving.items)}
		before := len(h.queue)
		h.s.now = ev.at
		h.s.dispatch(&ev)
		h.delivered(slices.Index(h.chs, arriving.src), model, before)
	}
}

func (h *queueHarness) accept(c int, b modelBatch) {
	for _, it := range b.items {
		h.queue = append(h.queue, it)
		h.stamps = append(h.stamps, batchHeader{shipped: b.shipped, src: h.chs[c], arrive: h.s.now})
		h.queueArr = append(h.queueArr, b.arr)
	}
	h.accepted[c] += int64(len(b.items))
	if occ := h.accepted[c] - h.popped[c]; occ > h.high[c] {
		h.high[c] = occ
	}
}

// pop takes one item the way maybeStart does (a marker at the head is
// consumed without a copy) and retries stalled deliveries.
func (h *queueHarness) pop() {
	if h.to.disposed || len(h.queue) == 0 {
		return
	}
	h.s.now++
	want, stamp := h.queue[0], h.stamps[0]
	h.queue, h.stamps, h.queueArr = h.queue[1:], h.stamps[1:], h.queueArr[1:]
	for c, ch := range h.chs {
		if stamp.src == ch {
			h.popped[c]++
		}
	}
	slot, _ := h.to.queue.peek()
	if slot.barrier != want.barrier {
		h.t.Fatalf("head barrier = %d, model %d", slot.barrier, want.barrier)
	}
	if want.barrier != 0 {
		h.s.popQueue(h.to, false)
	} else {
		h.s.popQueue(h.to, true)
		if got := h.to.svcItem; !reflect.DeepEqual(got, want) {
			h.t.Fatalf("pop = %+v, model %+v", got, want)
		}
		if got := h.to.svcHdr; got != stamp {
			h.t.Fatalf("popped item's batch header = %+v, the model stamped the item %+v", got, stamp)
		}
		h.to.endService()
		if it, hdr := h.to.svcItem, h.to.svcHdr; it.Origins != nil || it.span != nil || hdr.src != nil {
			h.t.Fatalf("emptied service slot still pins references: %+v %+v", it, hdr)
		}
	}
	if slot.Origins != nil || slot.span != nil {
		h.t.Fatalf("popped slot still pins references: %+v", *slot)
	}
	h.s.retryStalled(h.to)
	for c := range h.chs { // the model's retry, in to.in order
		for len(h.stalled[c]) > 0 {
			b := h.stalled[c][0]
			if harnessCapacity-len(h.queue) < len(b.items) {
				return
			}
			h.stalled[c] = h.stalled[c][1:]
			h.accept(c, b)
		}
	}
}

// kill is a FaultPlan kill of the consumer: queued and stalled data
// items are lost and every array goes back to the pool.
func (h *queueHarness) kill() {
	if h.to.disposed {
		return
	}
	h.lost += dataItems(h.queue)
	for c := range h.stalled {
		for _, b := range h.stalled[c] {
			h.lost += dataItems(b.items)
		}
		h.stalled[c] = nil
	}
	h.queue, h.stamps, h.queueArr = nil, nil, nil
	h.s.killTask(h.to, true)
}

// drain marks the consumer draining and lets it try to dispose: that
// succeeds exactly when nothing is queued or stalled.
func (h *queueHarness) drain() {
	if h.to.disposed {
		return
	}
	h.to.draining, h.to.busy = true, false
	h.s.tryDispose(h.to)
	h.to.busy = true
	idle := len(h.queue) == 0 && len(h.stalled[0])+len(h.stalled[1]) == 0
	if h.to.disposed != idle {
		h.t.Fatalf("draining task disposed = %v with %d queued, model idle = %v", h.to.disposed, len(h.queue), idle)
	}
}

// check compares every observable of the queue with the model, and the
// pool with the arrays the model says can still be read.
func (h *queueHarness) check() {
	t := h.t
	if h.s.err != nil {
		t.Fatal(h.s.err)
	}
	if got := h.to.queueLen(); got != len(h.queue) {
		t.Fatalf("queueLen = %d, model %d", got, len(h.queue))
	}
	if got, want := h.to.queue.dataItems(), dataItems(h.queue); got != want {
		t.Fatalf("queued data items = %d, model %d", got, want)
	}
	if got := h.s.killedItems + h.s.droppedItems; got != h.lost {
		t.Fatalf("killed+dropped = %d, model %d", got, h.lost)
	}
	stalledBatches := 0
	for c, ch := range h.chs {
		if ch.accepted != h.accepted[c] || ch.popped != h.popped[c] || ch.highWater != h.high[c] || ch.stallItems != h.stallN[c] {
			t.Fatalf("channel %d: accepted/popped/highWater/stallItems = %d/%d/%d/%d, model %d/%d/%d/%d", c,
				ch.accepted, ch.popped, ch.highWater, ch.stallItems, h.accepted[c], h.popped[c], h.high[c], h.stallN[c])
		}
		if len(ch.stalled) != len(h.stalled[c]) {
			t.Fatalf("channel %d: %d stalled batches, model %d", c, len(ch.stalled), len(h.stalled[c]))
		}
		if blocked := len(h.stalled[c]) > 0; (ch.from.blockedOut > 0) != blocked {
			t.Fatalf("channel %d: producer blockedOut = %d, model blocked = %v", c, ch.from.blockedOut, blocked)
		}
		stalledBatches += len(ch.stalled)
	}
	if !h.to.disposed && h.to.stalledInBatches != stalledBatches {
		t.Fatalf("stalledInBatches = %d, channels hold %d", h.to.stalledInBatches, stalledBatches)
	}
	// A consumed queue entry keeps neither its array nor its channel.
	q := &h.to.queue
	for i, b := range q.batches[:cap(q.batches)] {
		if (i < q.head || i >= len(q.batches)) && (b.items != nil || b.src != nil) {
			t.Fatalf("queue entry %d is consumed but still holds %+v", i, b)
		}
	}
	// Arrays an item can still be read from: queued and stalled ones.
	live := make(map[*Item]bool)
	for _, arr := range h.queueArr {
		live[arr] = true
	}
	for c := range h.stalled {
		for _, b := range h.stalled[c] {
			live[b.arr] = true
		}
	}
	pooled := make(map[*Item]bool)
	for _, b := range h.s.batchPool {
		arr := arrayOf(b)
		if pooled[arr] {
			t.Fatalf("array %p is on the free list twice", arr)
		}
		if live[arr] {
			t.Fatalf("array %p is on the free list while an item of it is still queued", arr)
		}
		pooled[arr] = true
		for i, it := range b[:cap(b)] {
			if it.Origins != nil || it.span != nil {
				t.Fatalf("pooled array %p slot %d pins references", arr, i)
			}
		}
	}
	if len(pooled)+len(live) != len(h.arrays) {
		t.Fatalf("%d arrays made, %d pooled + %d live: one leaked", len(h.arrays), len(pooled), len(live))
	}
}

// FuzzTaskQueue is the differential test of the consumer queue. One
// byte is one operation: 00nnnnnn pops n&7+1 items, 01nnnnnn / 10nnnnnn
// deliver n+1 items on channel 0 / 1, 11nnnnnn makes item n of the next
// delivery a barrier marker — except n = 61 (the next delivery is a
// broadcast to both channels), n = 62 (drain) and n = 63 (kill).
func FuzzTaskQueue(f *testing.F) {
	pop, ch0, ch1, mark := byte(0<<6), byte(1<<6), byte(2<<6), byte(3<<6)
	f.Add([]byte{ch0 | 2, pop | 2, ch1 | 1, pop | 1, ch0 | 0, pop})                    // empty, then refill
	f.Add([]byte{mark | 3, ch0 | 3, ch1 | 0, pop | 7})                                 // a barrier as a batch's last item
	f.Add([]byte{ch0 | 7, pop | 3, mark | 63, ch1 | 4})                                // kill with a half-consumed head batch
	f.Add([]byte{ch0 | 63, ch1 | 63, ch0 | 9, ch1 | 1, pop | 7, pop | 7, pop | 7})     // stall and retry
	f.Add([]byte{ch0 | 5, mark | 62, pop | 5, mark | 62, ch1 | 2})                     // drain, dispose, late delivery
	f.Add([]byte{mark | 61, ch0 | 3, pop | 1, ch1 | 63, mark | 61, ch0 | 40, pop | 7}) // broadcast copies, the second stalling
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		h := newQueueHarness(t)
		barrierAt, broadcast := -1, false
		for _, c := range ops {
			n := int(c & 63)
			switch c >> 6 {
			case 0:
				for i := 0; i <= n&7; i++ {
					h.pop()
				}
			case 1, 2:
				if broadcast {
					h.broadcast(n+1, barrierAt)
				} else {
					h.deliver(int(c>>6)-1, n+1, barrierAt)
				}
				barrierAt, broadcast = -1, false
			default:
				switch n {
				case 63:
					h.kill()
				case 62:
					h.drain()
				case 61:
					broadcast = true
				default:
					barrierAt = n
				}
			}
			h.check()
		}
		for len(h.queue) > 0 && !h.to.disposed {
			h.pop()
		}
		h.drain()
		h.check()
		if !h.to.disposed {
			t.Fatal("an emptied, draining task was not disposed")
		}
		if len(h.s.batchPool) != len(h.arrays) {
			t.Fatalf("%d arrays made, %d back on the free list at the end", len(h.arrays), len(h.s.batchPool))
		}
	})
}

// TestQueueWorkingSetBounded pins the regression the batch queue fixed:
// a task that is never backlogged must keep reusing the same storage.
// The flat []Item queue this replaced compacted only past 1024 consumed
// slots, so every such task walked through ≥ 2048 slots (224 KiB).
func TestQueueWorkingSetBounded(t *testing.T) {
	h := newQueueHarness(t)
	for i := 0; i < 100_000; i++ {
		h.deliver(i&1, 1+i%3, -1)
		if i%7 == 0 {
			h.deliver(1, 2, -1)
		}
		for len(h.queue) > 0 {
			h.pop()
		}
	}
	h.check()
	if c := cap(h.to.queue.batches); c > 8 {
		t.Errorf("a never-backlogged queue retains %d batch slots, want ≤ 8", c)
	}
	if n := len(h.arrays); n > 4 {
		t.Errorf("a never-backlogged queue cycled through %d arrays, want ≤ 4", n)
	}

	// A queue that never empties but stays short slides down in place.
	var q taskQueue
	q.push(batch{items: make([]Item, 2)})
	for i := 0; i < 100_000; i++ {
		q.push(batch{items: make([]Item, 2)})
		q.advance()
		q.advance()
	}
	if c := cap(q.batches); c > 8 || q.n != 2 {
		t.Errorf("a short, never-empty queue retains %d batch slots holding %d items, want ≤ 8 and 2", c, q.n)
	}
}

// BenchmarkItemHop is the item path's per-layer number: one op is one
// item through src(1) → worker(N) → sink(1) — written into a gate
// buffer, shipped, queued, served and emitted again, twice — with every
// batch two items (fixed 128-byte buffers of 64-byte items), workers a
// quarter busy and no control-plane tick in the way. At N = 128 the
// tasks' queues, not the event core, are what competes for cache.
func BenchmarkItemHop(b *testing.B) {
	for _, workers := range []int{4, 128} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			probes := probe.NewProbeSet()
			cfg := pipelineConfig(b, probes,
				&workload.ConstantSchedule{RatePerSecond: 250 * float64(workers), Length: math.Inf(1)}, false, workers,
				func(int) Behavior { return &testServer{mean: 1e-3} })
			for ek := range cfg.Edges {
				cfg.Edges[ek] = EdgeConfig{Mode: BatchFixedBuffer, BufferBytes: 128}
			}
			cfg.Duration = math.Inf(1)
			s, err := New(cfg, probes)
			if err != nil {
				b.Fatal(err)
			}
			src := s.vertices["src"]
			var ev event
			emit := func(n int64) {
				for target := src.emitted + n; src.emitted < target && s.err == nil && s.q.pop(&ev); {
					s.now = ev.at
					s.dispatch(&ev)
				}
			}
			emit(int64(64 * workers)) // batch pool, queues and arenas at their steady size
			b.ReportAllocs()
			b.ResetTimer()
			emit(int64(b.N))
			if s.err != nil {
				b.Fatal(s.err)
			}
		})
	}
}
