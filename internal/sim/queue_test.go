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

// queueHarness drives one consumer task's inbound channels and input
// queue by hand — ship, arrive, pop, retry, kill either end, drain,
// through the simulator's own functions — next to a reference model:
// per channel, the batches shipped and not yet accepted, oldest first,
// of which a prefix has arrived; and the queue as one flat slice of
// item copies, each stamped with its own ship time, delivering channel
// and arrival time. The consumer is the sink of a src(1)→server(2)→sink(1)
// pipeline, so it has two inbound channels, each from its own producer;
// it is pinned busy, which leaves every pop to the harness.
type queueHarness struct {
	t    *testing.T
	s    *Sim
	to   *simTask
	chs  []*simChannel
	span *obs.Span
	next uint64 // item id counter

	// The model: queued items, each under its own stamps, with the array
	// each lies in; per channel the batches shipped and not yet accepted
	// (the first arrived of them stalled), whether it is closed, and its
	// counters; the data items shipped, accepted, served and lost, and of
	// the lost ones those lost on a channel; every array seen.
	queue    []Item
	stamps   []batchHeader
	queueArr []*Item
	fifo     [2][]modelBatch
	arrived  [2]int
	closed   [2]bool
	accepted [2]int64
	popped   [2]int64
	high     [2]int64
	stallN   [2]int64
	shipped  int64
	taken    int64
	served   int64
	lost     int64 // expected killedItems + droppedItems
	chanLost int64
	arrays   map[*Item]bool
}

// modelBatch is a batch on a channel in the model: copies of its items,
// the time it shipped, its marker id and the array the simulator holds
// them in.
type modelBatch struct {
	items   []Item
	shipped float64
	barrier int64
	arr     *Item
}

func (b *modelBatch) data() int64 {
	if b.barrier != 0 {
		return 0
	}
	return int64(len(b.items))
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
	if len(h.chs) != 2 || h.chs[0].from == h.chs[1].from {
		t.Fatalf("sink has %d inbound channels, want 2 from two producers", len(h.chs))
	}
	return h
}

func arrayOf(b []Item) *Item { return &b[:1][0] }

// build makes a batch of n items as the gates build it (appended onto a
// pooled array); a marker's is its one placeholder item.
func (h *queueHarness) build(n int, marker bool) []Item {
	b := h.s.getBatch()
	if cap(b) > 0 {
		delete(h.arrays, arrayOf(b)) // re-registered below unless append outgrows it
	}
	for i := 0; i < n; i++ {
		h.next++
		it := Item{EmitTime: float64(h.next), BufferTime: h.s.now - 0.5,
			Size: int32(h.next % 97), Kind: uint8(h.next), Sampled: h.next%3 == 0, Key: h.next,
			Src: int32(h.next%2 + 1), Offset: h.next}
		if h.next%5 == 0 {
			it.span = h.span
		}
		if marker {
			it = Item{}
		}
		b = append(b, it)
	}
	h.arrays[arrayOf(b)] = true
	return b
}

// ship puts a batch of n items on channel c — a barrier marker, of one
// item, if marker is set — unless the channel is closed (no gate routes
// to it).
func (h *queueHarness) ship(c, n int, marker bool) {
	if h.closed[c] {
		return
	}
	h.s.now++
	barrier := int64(0)
	if marker {
		n, barrier = 1, int64(h.next+1)
	}
	h.s.ship(h.chs[c], h.build(n, marker), 0, barrier)
	h.onShip(c)
	h.takeDeliveries(c)
}

// onShip is the model's side of a ship on channel c: the batch the
// simulator just pushed on the channel's FIFO.
func (h *queueHarness) onShip(c int) {
	b := h.chs[c].fifo.at(h.chs[c].fifo.len() - 1)
	m := modelBatch{items: slices.Clone(b.items), shipped: h.s.now, barrier: b.barrier, arr: arrayOf(b.items)}
	h.arrays[m.arr] = true
	h.fifo[c] = append(h.fifo[c], m)
	h.shipped += m.data()
}

// takeDeliveries takes over the delivery events the last ship
// scheduled: exactly one per channel in cs, naming its slot and its
// producer.
func (h *queueHarness) takeDeliveries(cs ...int) {
	var ev event
	var got, want []int32
	for h.s.q.pop(&ev) {
		if ch := h.s.chanSlots[ev.n]; ev.kind != evDeliver || ch == nil || ev.tslot != ch.from.slot {
			h.t.Fatalf("a ship scheduled %+v, want a delivery naming a channel's slot and its producer", ev)
		}
		got = append(got, ev.n)
	}
	for _, c := range cs {
		want = append(want, h.chs[c].slot)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		h.t.Fatalf("a ship scheduled deliveries on slots %v, want %v", got, want)
	}
}

// broadcast ships one batch to every open channel through shipBatch —
// the last addressee gets the array, the others a copy, all under one
// ship time.
func (h *queueHarness) broadcast(n int) {
	var open []int
	var to []*simChannel
	for c, ch := range h.chs {
		if !h.closed[c] {
			open, to = append(open, c), append(to, ch)
		}
	}
	if len(open) == 0 {
		return
	}
	h.s.now++
	b := h.build(n, false)
	if p := h.s.batchPool; len(open) > 1 && len(p) > 0 {
		delete(h.arrays, arrayOf(p[len(p)-1])) // the copy's array; registered as shipped
	}
	h.s.shipBatch(to, b, 0)
	for _, c := range open {
		h.onShip(c)
	}
	h.takeDeliveries(open...)
}

// arrive runs the delivery of channel c's oldest batch in transit, if
// it has one.
func (h *queueHarness) arrive(c int) {
	ch := h.chs[c]
	if len(h.fifo[c]) == h.arrived[c] {
		return
	}
	h.s.now++
	h.s.deliver(ch)
	switch {
	case h.to.disposed:
		if h.arrived[c] != 0 {
			h.t.Fatalf("channel %d to a disposed consumer has %d stalled batches", c, h.arrived[c])
		}
		h.lose(h.fifo[c][0].data())
		h.fifo[c] = h.fifo[c][1:]
	case h.arrived[c] == 0 && (h.closed[c] || harnessCapacity-len(h.queue) >= len(h.fifo[c][0].items)):
		h.arrived[c]++
		h.accept(c)
	default:
		h.stallN[c] += int64(len(h.fifo[c][h.arrived[c]].items))
		h.arrived[c]++
	}
}

// deliver ships a batch of n items on channel c and runs its arrival.
func (h *queueHarness) deliver(c, n int) {
	h.ship(c, n, false)
	h.arrive(c)
}

// accept moves channel c's front batch, which has arrived, into the
// model's queue.
func (h *queueHarness) accept(c int) {
	b := h.fifo[c][0]
	h.fifo[c], h.arrived[c] = h.fifo[c][1:], h.arrived[c]-1
	for _, it := range b.items {
		h.queue = append(h.queue, it)
		h.stamps = append(h.stamps, batchHeader{shipped: b.shipped, src: h.chs[c], arrive: h.s.now, barrier: b.barrier})
		h.queueArr = append(h.queueArr, b.arr)
	}
	h.accepted[c] += int64(len(b.items))
	h.taken += b.data()
	if occ := h.accepted[c] - h.popped[c]; occ > h.high[c] {
		h.high[c] = occ
	}
}

// pop takes one item the way maybeStart does (a marker at the head is
// consumed without a copy) and retries stalled deliveries: channel by
// channel in the consumer's in order, front first, while there is room.
func (h *queueHarness) pop() {
	if h.to.disposed || len(h.queue) == 0 {
		return
	}
	h.s.now++
	want, stamp := h.queue[0], h.stamps[0]
	h.queue, h.stamps, h.queueArr = h.queue[1:], h.stamps[1:], h.queueArr[1:]
	h.popped[slices.Index(h.chs, stamp.src)]++
	slot, hdr := h.to.queue.peek()
	if hdr.barrier != stamp.barrier {
		h.t.Fatalf("head batch barrier = %d, model %d", hdr.barrier, stamp.barrier)
	}
	if stamp.barrier != 0 {
		h.s.popQueue(h.to, false)
	} else {
		h.s.popQueue(h.to, true)
		h.served++
		if got := h.to.svcItem; !reflect.DeepEqual(got, want) {
			h.t.Fatalf("pop = %+v, model %+v", got, want)
		}
		if got := h.to.svcHdr; got != stamp {
			h.t.Fatalf("popped item's batch header = %+v, the model stamped the item %+v", got, stamp)
		}
		h.to.endService()
		if it, hdr := h.to.svcItem, h.to.svcHdr; it.span != nil || hdr.src != nil {
			h.t.Fatalf("emptied service slot still pins references: %+v %+v", it, hdr)
		}
	}
	if slot.span != nil {
		h.t.Fatalf("popped slot still pins references: %+v", *slot)
	}
	h.s.retryStalled(h.to)
	for c := range h.chs {
		for !h.closed[c] && h.arrived[c] > 0 {
			if harnessCapacity-len(h.queue) < len(h.fifo[c][0].items) {
				return
			}
			h.accept(c)
		}
	}
}

// lose counts n data items lost on a channel.
func (h *queueHarness) lose(n int64) {
	h.lost += n
	h.chanLost += n
}

// dropStalled is the model's side of a kill at either end of channel c:
// its stalled batches are lost, and it closes.
func (h *queueHarness) dropStalled(c int) {
	for _, b := range h.fifo[c][:h.arrived[c]] {
		h.lose(b.data())
	}
	h.fifo[c], h.arrived[c], h.closed[c] = h.fifo[c][h.arrived[c]:], 0, true
}

// kill is a FaultPlan kill of the consumer: queued and stalled data
// items are lost, and so will be what is still in transit to it.
func (h *queueHarness) kill() {
	if h.to.disposed {
		return
	}
	for i := range h.queue {
		if h.stamps[i].barrier == 0 {
			h.lost++
		}
	}
	h.queue, h.stamps, h.queueArr = nil, nil, nil
	h.dropStalled(0)
	h.dropStalled(1)
	h.s.killTask(h.to, true)
}

// killProducer is a FaultPlan kill of channel c's producer: the
// channel's stalled batches are lost; what is in transit still arrives,
// and the consumer takes it at once.
func (h *queueHarness) killProducer(c int) {
	if p := h.chs[c].from; !p.disposed {
		h.dropStalled(c)
		h.s.killTask(p, true)
	}
}

// drain marks the consumer draining and lets it try to dispose: that
// succeeds exactly when nothing is queued, stalled or in transit to it.
func (h *queueHarness) drain() {
	if h.to.disposed {
		return
	}
	h.to.draining, h.to.busy = true, false
	h.s.tryDispose(h.to)
	h.to.busy = true
	idle := len(h.queue) == 0 && len(h.fifo[0])+len(h.fifo[1]) == 0
	if h.to.disposed != idle {
		h.t.Fatalf("draining task disposed = %v with %d queued, model idle = %v", h.to.disposed, len(h.queue), idle)
	}
	if idle {
		h.closed = [2]bool{true, true}
	}
}

// check compares every observable of the channels and the queue with
// the model, and the pool with the arrays the model says can still be
// read.
func (h *queueHarness) check() {
	t := h.t
	if h.s.err != nil {
		t.Fatal(h.s.err)
	}
	if got := h.to.queueLen(); got != len(h.queue) {
		t.Fatalf("queueLen = %d, model %d", got, len(h.queue))
	}
	var queued int64
	for i := range h.queue {
		if h.stamps[i].barrier == 0 {
			queued++
		}
	}
	q := h.to.queue // drained below: a copy
	if _, got := q.drain(); got != queued {
		t.Fatalf("queued data items = %d, model %d", got, queued)
	}
	if got := h.s.killedItems + h.s.droppedItems; got != h.lost {
		t.Fatalf("killed+dropped = %d, model %d", got, h.lost)
	}
	// Each shipped data item leaves its channel once, accepted or lost,
	// and each accepted one leaves the queue once, served or lost.
	onChannels := int64(0)
	stalled, inTransit := 0, 0
	for c, ch := range h.chs {
		if ch.accepted != h.accepted[c] || ch.popped != h.popped[c] || ch.highWater != h.high[c] || ch.stallItems != h.stallN[c] {
			t.Fatalf("channel %d: accepted/popped/highWater/stallItems = %d/%d/%d/%d, model %d/%d/%d/%d", c,
				ch.accepted, ch.popped, ch.highWater, ch.stallItems, h.accepted[c], h.popped[c], h.high[c], h.stallN[c])
		}
		if ch.fifo.len() != len(h.fifo[c]) || ch.arrived != h.arrived[c] || ch.closed != h.closed[c] {
			t.Fatalf("channel %d: %d batches, %d arrived, closed %v; model %d, %d, %v", c,
				ch.fifo.len(), ch.arrived, ch.closed, len(h.fifo[c]), h.arrived[c], h.closed[c])
		}
		for i, m := range h.fifo[c] {
			b := ch.fifo.at(i)
			if !reflect.DeepEqual(b.items, m.items) || b.shipped != m.shipped || b.barrier != m.barrier || b.src != ch {
				t.Fatalf("channel %d batch %d = %+v, model %+v", c, i, *b, m)
			}
			onChannels += m.data()
		}
		if blocked := h.arrived[c] > 0; (ch.from.blockedOut > 0) != blocked {
			t.Fatalf("channel %d: producer blockedOut = %d, model blocked = %v", c, ch.from.blockedOut, blocked)
		}
		// A channel holds its slot while it is open or holds a batch.
		if want := !ch.closed || len(h.fifo[c]) > 0; holdsSlot(t, h.s, ch) != want {
			t.Fatalf("channel %d (closed %v, %d batches) holds its slot = %v", c, ch.closed, len(h.fifo[c]), !want)
		}
		stalled += h.arrived[c]
		inTransit += len(h.fifo[c]) - h.arrived[c]
	}
	if h.shipped != h.taken+h.chanLost+onChannels {
		t.Fatalf("%d data items shipped, %d accepted + %d lost + %d on the channels", h.shipped, h.taken, h.chanLost, onChannels)
	}
	if h.taken != h.served+(h.lost-h.chanLost)+queued {
		t.Fatalf("%d data items accepted, %d served + %d lost + %d queued", h.taken, h.served, h.lost-h.chanLost, queued)
	}
	if h.to.stalledInBatches != stalled || h.to.inflightIn != inTransit {
		t.Fatalf("stalledInBatches/inflightIn = %d/%d, channels hold %d/%d", h.to.stalledInBatches, h.to.inflightIn, stalled, inTransit)
	}
	// A consumed queue or channel entry keeps neither its array nor its
	// channel.
	fifos := []*batchFIFO{&h.to.queue.batchFIFO, &h.chs[0].fifo, &h.chs[1].fifo}
	for _, f := range fifos {
		for i, b := range f.batches[:cap(f.batches)] {
			if (i < f.head || i >= len(f.batches)) && (b.items != nil || b.src != nil) {
				t.Fatalf("FIFO entry %d is consumed but still holds %+v", i, b)
			}
		}
	}
	// Arrays an item can still be read from: queued ones and those on a
	// channel.
	live := make(map[*Item]bool)
	for _, arr := range h.queueArr {
		live[arr] = true
	}
	for c := range h.fifo {
		for _, b := range h.fifo[c] {
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
			t.Fatalf("array %p is on the free list while an item of it can still be read", arr)
		}
		pooled[arr] = true
		for i, it := range b[:cap(b)] {
			if it.span != nil {
				t.Fatalf("pooled array %p slot %d pins references", arr, i)
			}
		}
	}
	if len(pooled)+len(live) != len(h.arrays) {
		t.Fatalf("%d arrays made, %d pooled + %d live: one leaked", len(h.arrays), len(pooled), len(live))
	}
}

// FuzzTaskQueue is the differential test of a consumer's inbound
// channels and queue. One byte is one operation: 00nnnnnn pops n&7+1
// items; 01nnnnnn / 10nnnnnn ship n+1 items on channel 0 / 1; 11nnnnnn
// is, by n: 0, 1 the arrival of channel n's oldest batch in transit;
// 2, 3 a barrier marker shipped on channel n-2; 4 makes the next ship a
// broadcast to every open channel; 5 drains the consumer; 6 kills it;
// 7, 8 kill channel n-7's producer; any other n lets everything in
// transit arrive, channel n&1 first.
func FuzzTaskQueue(f *testing.F) {
	pop, ch0, ch1, op := byte(0<<6), byte(1<<6), byte(2<<6), byte(3<<6)
	f.Add([]byte{ch0 | 2, op | 0, pop | 2, ch1 | 1, op | 1, pop | 1, ch0 | 0, op | 9, pop})               // empty, then refill
	f.Add([]byte{ch0 | 3, op | 2, ch1 | 0, op | 9, pop | 7})                                              // a marker behind a batch
	f.Add([]byte{ch0 | 7, op | 0, pop | 3, op | 6, ch1 | 4, op | 9})                                      // kill with a half-consumed head batch
	f.Add([]byte{ch0 | 63, ch1 | 63, ch0 | 9, ch1 | 1, op | 9, op | 10, pop | 7, pop | 7, pop | 7})       // stall and retry
	f.Add([]byte{ch1 | 63, ch1 | 40, ch0 | 50, op | 3, op | 10, ch0 | 5, op | 6, op | 9})                 // kill the consumer: stalled and in transit
	f.Add([]byte{ch0 | 63, ch0 | 50, op | 0, op | 0, ch0 | 9, ch0 | 9, op | 7, op | 9, pop | 7, op | 5})  // kill a producer: stalled and in transit
	f.Add([]byte{ch0 | 5, op | 9, op | 5, pop | 5, op | 5, ch1 | 2, op | 9})                              // drain, dispose, late delivery
	f.Add([]byte{op | 4, ch0 | 3, op | 9, pop | 1, ch1 | 63, op | 9, op | 4, ch0 | 40, op | 9, pop | 7})  // broadcast copies, the second stalling
	f.Add([]byte{ch1 | 63, op | 9, ch1 | 30, op | 8, ch0 | 1, ch1 | 1, op | 4, ch0 | 20, op | 9, op | 5}) // broadcast to the open channel only
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		h := newQueueHarness(t)
		broadcast := false
		for _, c := range ops {
			n := int(c & 63)
			switch c >> 6 {
			case 0:
				for i := 0; i <= n&7; i++ {
					h.pop()
				}
			case 1, 2:
				if broadcast {
					h.broadcast(n + 1)
				} else {
					h.ship(int(c>>6)-1, n+1, false)
				}
				broadcast = false
			default:
				switch n {
				case 0, 1:
					h.arrive(n)
				case 2, 3:
					h.ship(n-2, 1, true)
				case 4:
					broadcast = true
				case 5:
					h.drain()
				case 6:
					h.kill()
				case 7, 8:
					h.killProducer(n - 7)
				default:
					h.arriveAll(n & 1)
				}
			}
			h.check()
		}
		h.arriveAll(0)
		for len(h.queue) > 0 && !h.to.disposed {
			h.pop()
		}
		h.drain()
		h.check()
		if !h.to.disposed {
			t.Fatal("an emptied, draining task was not disposed")
		}
		for c, ch := range h.chs {
			if holdsSlot(t, h.s, ch) {
				t.Fatalf("channel %d is closed and empty but holds its slot", c)
			}
		}
		if len(h.s.batchPool) != len(h.arrays) {
			t.Fatalf("%d arrays made, %d back on the free list at the end", len(h.arrays), len(h.s.batchPool))
		}
	})
}

// arriveAll runs every delivery in transit, channel first's first.
func (h *queueHarness) arriveAll(first int) {
	for _, c := range []int{first, 1 - first} {
		for len(h.fifo[c]) > h.arrived[c] {
			h.arrive(c)
		}
	}
}

// TestQueueWorkingSetBounded pins the regression the batch queue fixed:
// a task that is never backlogged must keep reusing the same storage.
// The flat []Item queue this replaced compacted only past 1024 consumed
// slots, so every such task walked through ≥ 2048 slots (224 KiB).
func TestQueueWorkingSetBounded(t *testing.T) {
	h := newQueueHarness(t)
	for i := 0; i < 100_000; i++ {
		h.deliver(i&1, 1+i%3)
		if i%7 == 0 {
			h.deliver(1, 2)
		}
		for len(h.queue) > 0 {
			h.pop()
		}
	}
	h.check()
	for _, f := range []*batchFIFO{&h.to.queue.batchFIFO, &h.chs[0].fifo, &h.chs[1].fifo} {
		if c := cap(f.batches); c > 8 {
			t.Errorf("a never-backlogged queue or channel retains %d batch slots, want ≤ 8", c)
		}
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
