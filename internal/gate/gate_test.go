package gate

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"nephelix/internal/model"
)

// The tests drive the gate with neither runtime: an integer clock, int
// consumers and a record that carries its own weight.

type tick int64

func (t tick) Add(d int64) tick   { return t + tick(d) }
func (t tick) Before(u tick) bool { return t < u }

const never = int64(math.MaxInt64)

type rec struct {
	id   int
	key  uint64
	size int
}

func routeRec(r *rec) (uint64, int) { return r.key, 1 }

type testGate = Gate[int, rec, tick, int64]

func newTestGate(p model.WiringPattern, limit int) *testGate {
	return New[int, rec, tick](p, limit, never, rand.New(rand.NewSource(1)))
}

// checkAligned asserts the churn invariant: after any producer call no
// key buffer is pinned outside the last observed consumer set.
func checkAligned(t testing.TB, g *testGate) {
	t.Helper()
	if g.pattern == model.PatternKeyBased && len(g.slots) != len(g.seen.consumers) {
		t.Fatalf("%d key buffers for %d observed consumers", len(g.slots), len(g.seen.consumers))
	}
}

// TestStrandedKeyBuffers: key buffers pinned to a removed consumer are
// handed back, and re-partitioned over the live set they keep their
// buffered age — a flush check at exactly first-push + deadline ships
// everything, none of it to the removed consumer.
func TestStrandedKeyBuffers(t *testing.T) {
	g := newTestGate(model.PatternKeyBased, 1024)
	const keep, gone, n, dl = 1, 2, 64, 60
	g.Add(keep)
	g.Add(gone)
	for i := 0; i < n; i++ {
		if _, v := g.Push(&rec{id: i, key: uint64(i)}, uint64(i), 1, 100, dl); v&Flush != 0 {
			t.Fatalf("push %d flushed early", i)
		}
	}
	g.Remove(gone)
	if len(g.Stranded()) != 0 {
		t.Fatal("stranded before the producer observed the change")
	}
	g.Observe()
	checkAligned(t, g)
	st := g.Stranded()
	if len(st) != 1 || st[0].To[0] != gone || len(st[0].Recs) == 0 || st[0].Oldest != 100 {
		t.Fatalf("stranded = %+v, want one aged buffer pinned to the removed consumer", st)
	}
	if d := g.Rehash(st[0], routeRec); d != 0 {
		t.Fatalf("rehash dropped %d records with a live consumer", d)
	}
	if len(g.Due(100+dl-1, dl)) != 0 {
		t.Fatal("due before the deadline")
	}
	total := 0
	for _, k := range g.Due(100+dl, dl) {
		b := g.Take(k, nil)
		if len(b.To) != 1 || b.To[0] != keep {
			t.Fatalf("batch addressed to %v, want the live consumer", b.To)
		}
		total += len(b.Recs)
	}
	if total != n || g.Buffered() != 0 {
		t.Fatalf("flushed %d of %d records, %d left behind", total, n, g.Buffered())
	}
}

// countingSource counts the draws a gate makes from its rotation rng.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// TestAddMany: one Add of several consumers leaves a gate exactly as
// that many single Adds, each observed as it lands, do — consumer order,
// key-buffer layout, what a later Remove strands and the rotation draws
// at the next flush — while copying the list once and publishing one
// snapshot.
func TestAddMany(t *testing.T) {
	for _, p := range []model.WiringPattern{model.PatternKeyBased, model.PatternRoundRobin} {
		srcs := [2]*countingSource{{Source: rand.NewSource(1)}, {Source: rand.NewSource(1)}}
		var gs [2]*testGate
		for i := range gs {
			gs[i] = New[int, rec, tick](p, 1024, never, rand.New(srcs[i]))
			gs[i].Add(0)
			gs[i].Observe()
		}
		push := func(from, to int) {
			for _, g := range gs {
				for k := from; k < to; k++ {
					g.Push(&rec{id: k, key: uint64(k)}, uint64(k), 1, tick(k), 1000)
				}
			}
		}
		push(0, 16)
		gs[0].Add(1, 2, 3)
		gs[0].Observe()
		for c := 1; c <= 3; c++ {
			gs[1].Add(c)
			gs[1].Observe()
		}
		if got, want := gs[0].Consumers(), gs[1].Consumers(); !slices.Equal(got, want) || !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("%v: Add(1, 2, 3) gave consumers %v, single Adds %v", p, got, want)
		}
		push(16, 64)
		if !reflect.DeepEqual(gs[0].slots, gs[1].slots) {
			t.Fatalf("%v: key buffers laid out differently after Observe", p)
		}
		for _, g := range gs {
			g.Remove(2)
			g.Observe()
		}
		got, want := gs[0].Stranded(), gs[1].Stranded()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Remove stranded %v after Add(1, 2, 3), %v after single Adds", p, got, want)
		}
		if p == model.PatternKeyBased && len(got) == 0 {
			t.Fatalf("%v: removing consumer 2 stranded nothing; the comparison is vacuous", p)
		}
		var to [2][]int
		for i, g := range gs {
			before := srcs[i].draws
			k := g.Due(1<<40, 1000)[0]
			to[i] = g.Take(k, nil).To
			srcs[i].draws -= before
		}
		if p == model.PatternRoundRobin && srcs[1].draws == 0 {
			t.Fatalf("%v: the flush drew no rotation offset; the comparison is vacuous", p)
		}
		if srcs[0].draws != srcs[1].draws || !slices.Equal(to[0], to[1]) {
			t.Errorf("%v: next flush drew %d times to %v after Add(1, 2, 3), %d times to %v after single Adds",
				p, srcs[0].draws, to[0], srcs[1].draws, to[1])
		}

		g := gs[0]
		base := g.set.Load()
		// One snapshot and one copy of the list: two allocations.
		if n := testing.AllocsPerRun(10, func() {
			g.set.Store(base)
			g.Add(4, 5, 6)
		}); n != 2 {
			t.Errorf("%v: Add(4, 5, 6) made %v allocations, want 2 (one snapshot, one list)", p, n)
		}
		g.set.Store(base)
		g.Add()
		if g.set.Load() != base {
			t.Errorf("%v: Add() published a snapshot", p)
		}
	}
}

// TestNoConsumers: when the last consumer leaves, stranded records have
// nowhere to go and are reported dropped, as is every later push.
func TestNoConsumers(t *testing.T) {
	g := newTestGate(model.PatternKeyBased, 1024)
	g.Add(7)
	for i := 0; i < 16; i++ {
		g.Push(&rec{id: i}, uint64(i), 1, 0, 60)
	}
	g.Remove(7)
	_, v := g.Push(&rec{id: 16}, 16, 1, 0, 60)
	if v != Dropped|Churn {
		t.Fatalf("push without consumers: verdict %b, want Dropped|Churn", v)
	}
	dropped := 0
	for _, b := range g.Stranded() {
		dropped += g.Rehash(b, routeRec)
	}
	if dropped != 16 || g.Buffered() != 0 || len(g.NonEmpty()) != 0 {
		t.Fatalf("dropped %d of 16, %d still buffered", dropped, g.Buffered())
	}

	// A shared buffer that loses its consumers is taken addressed to
	// nobody; the driver accounts the loss.
	s := newTestGate(model.PatternRoundRobin, 1024)
	s.Add(7)
	s.Push(&rec{}, 0, 1, 0, 60)
	s.Remove(7)
	s.Observe()
	if b := s.Take(s.NonEmpty()[0], nil); len(b.To) != 0 || len(b.Recs) != 1 {
		t.Fatalf("take without consumers = %+v", b)
	}
}

// TestBroadcastOwnership: a broadcast batch is addressed to every
// consumer, and the buffer handed out is no longer the gate's — later
// pushes go to the replacement the driver supplied.
func TestBroadcastOwnership(t *testing.T) {
	g := newTestGate(model.PatternBroadcast, 1024)
	for c := 1; c <= 3; c++ {
		g.Add(c)
	}
	for i := 0; i < 8; i++ {
		g.Push(&rec{id: i}, 0, 1, 0, 60)
	}
	fresh := make([]rec, 0, 8)
	b := g.Take(g.NonEmpty()[0], fresh)
	if !slices.Equal(b.To, []int{1, 2, 3}) || len(b.Recs) != 8 {
		t.Fatalf("broadcast batch to %v with %d records", b.To, len(b.Recs))
	}
	g.Push(&rec{id: -1}, 0, 1, 0, 60)
	for i, r := range b.Recs {
		if r.id != i {
			t.Fatalf("a later push wrote into the detached batch: record %d = %d", i, r.id)
		}
	}
	if fresh[:1][0].id != -1 {
		t.Fatal("the gate did not adopt the replacement buffer")
	}
}

// TestConcurrentConsumerChurn runs a producer against a control
// goroutine adding and removing consumers, under every pattern. Under
// -race it fails on any unsynchronized access; the assertions are the
// routing invariant the single snapshot load guarantees: after every
// call the key buffers are aligned with the set that call observed, and
// every batch is addressed inside that set.
func TestConcurrentConsumerChurn(t *testing.T) {
	for name, pattern := range map[string]model.WiringPattern{
		"roundrobin": model.PatternRoundRobin,
		"broadcast":  model.PatternBroadcast,
		"keybased":   model.PatternKeyBased,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := newTestGate(pattern, 8)
			g.Add(0) // never removed: push always has a target

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // control: churn the consumer set
				defer wg.Done()
				var live []int
				for i := 1; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if len(live) < 4 {
						live = append(live, i)
						g.Add(i)
					} else {
						g.Remove(live[0])
						live = live[1:]
					}
					if i%8 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()

			pushed, left := 0, 0
			take := func(k int) {
				b := g.Take(k, nil)
				for _, c := range b.To {
					if !slices.Contains(g.seen.consumers, c) {
						t.Errorf("batch addressed to %d, outside the observed set %v", c, g.seen.consumers)
					}
				}
				if len(b.To) == 0 {
					t.Error("batch addressed to nobody with consumer 0 always live")
				}
				left += len(b.Recs)
			}
			settle := func() {
				checkAligned(t, g)
				for _, b := range g.Stranded() {
					if slices.Contains(g.seen.consumers, b.To[0]) {
						t.Errorf("buffer of live consumer %d handed back as stranded", b.To[0])
					}
					if d := g.Rehash(b, routeRec); d != 0 {
						t.Errorf("rehash dropped %d records", d)
					}
				}
				checkAligned(t, g)
			}
			const dl = 200
			for i := 0; i < 4000; i++ {
				now := tick(i)
				k, v := g.Push(&rec{id: i, key: uint64(i)}, uint64(i), 1, now, dl)
				pushed++
				if v&Dropped != 0 {
					t.Fatal("dropped with consumer 0 always live")
				}
				if v&Flush != 0 {
					take(k)
				}
				settle()
				if i%16 == 0 {
					g.Observe()
					settle()
					for _, k := range g.Due(now, dl) {
						take(k)
					}
				}
			}
			g.Observe()
			settle()
			for _, k := range g.NonEmpty() {
				take(k)
			}
			close(done)
			wg.Wait()
			if left != pushed || g.Buffered() != 0 {
				t.Fatalf("pushed %d, %d left the gate, %d still buffered", pushed, left, g.Buffered())
			}
		})
	}
}

// BenchmarkGatePush is the "gate routing" row: one Push (and, when it
// says so, the Take) with the engine's types — an 80-byte record,
// time.Time stamps, record-count cap — over four consumers.
func BenchmarkGatePush(b *testing.B) {
	type record struct {
		Key     uint64
		Value   any
		Emit    time.Time
		Sampled bool
		span    *int
		src     int32
		off     uint64
	}
	for _, p := range []struct {
		name    string
		pattern model.WiringPattern
	}{{"rotation", model.PatternRoundRobin}, {"broadcast", model.PatternBroadcast}, {"keyed", model.PatternKeyBased}} {
		for _, mode := range []struct {
			name string
			dl   time.Duration
		}{{"instant", 0}, {"capped", time.Duration(math.MaxInt64)}} {
			b.Run(p.name+"/"+mode.name, func(b *testing.B) {
				g := New[*int, record, time.Time](p.pattern, 256, time.Duration(math.MaxInt64), rand.New(rand.NewSource(1)))
				for i := 0; i < 4; i++ {
					g.Add(new(int))
				}
				now := time.Now()
				r := record{Value: 1}
				spare := make([]record, 0, 256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Key = uint64(i)
					if k, v := g.Push(&r, r.Key, 1, now, mode.dl); v&Flush != 0 {
						spare = g.Take(k, spare).Recs
					}
				}
			})
		}
	}
}

// TestSettle pins the end-of-input decision: Settle returns a slot only
// if, since the previous Settle, it was pushed a full cap, hit its size
// trigger and still holds records — the leftover of a fill inside one
// input batch — and then restarts every slot's count.
func TestSettle(t *testing.T) {
	const limit = 256
	// input pushes n records with the given keys (key(i)) under dl,
	// taking every slot Push flushes, and returns Settle's slots.
	input := func(g *testGate, n int, key func(int) uint64, dl int64) []int {
		for i := 0; i < n; i++ {
			if k, v := g.Push(&rec{id: i}, key(i), 1, 0, dl); v&Flush != 0 {
				g.Take(k, nil)
			}
		}
		return slices.Clone(g.Settle())
	}
	zero := func(int) uint64 { return 0 }
	// keyOf finds a key the two-consumer keyed gate pins to slot k.
	keyOf := func(k int) uint64 {
		for key := uint64(0); ; key++ {
			if mix64(key)%2 == uint64(k) {
				return key
			}
		}
	}
	roundRobin := func() *testGate {
		g := newTestGate(model.PatternRoundRobin, limit)
		g.Add(1)
		return g
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"one input fills the slot: its 44 leftover is returned", func(t *testing.T) {
			g := roundRobin()
			if got := input(g, 300, zero, 20); !slices.Equal(got, []int{0}) {
				t.Fatalf("Settle = %v, want [0]", got)
			}
			if b := g.Take(0, nil); len(b.Recs) != 44 || b.Recs[0].id != 256 {
				t.Fatalf("leftover has %d records starting at %d, want 44 from 256", len(b.Recs), b.Recs[0].id)
			}
			if got := g.Settle(); len(got) != 0 {
				t.Fatalf("a second Settle returned %v: the count was not restarted", got)
			}
		}},
		{"a fill across sub-cap inputs is not returned", func(t *testing.T) {
			g := roundRobin()
			for i := 0; i < 6; i++ {
				if got := input(g, 50, zero, 20); len(got) != 0 {
					t.Fatalf("input %d: Settle = %v, want none", i, got)
				}
			}
			if g.Buffered() != 300-limit {
				t.Fatalf("%d records buffered, want the %d past the one size flush", g.Buffered(), 300-limit)
			}
		}},
		{"a slot its deadline emptied is not returned", func(t *testing.T) {
			g := roundRobin()
			for i := 0; i < 300; i++ {
				g.Push(&rec{id: i}, 0, 1, tick(i), 100)
				for _, k := range g.Due(tick(i), 100) {
					g.Take(k, nil)
				}
			}
			if got := g.Settle(); len(got) != 0 || g.Buffered() == 0 {
				t.Fatalf("Settle = %v with %d buffered, want none: no push hit the size trigger", got, g.Buffered())
			}
		}},
		{"keyed: only the slot that filled is returned", func(t *testing.T) {
			g := newTestGate(model.PatternKeyBased, limit)
			g.Add(1)
			g.Add(2)
			full, light := keyOf(1), keyOf(0)
			got := input(g, 310, func(i int) uint64 {
				if i%31 == 0 {
					return light
				}
				return full
			}, 20)
			if !slices.Equal(got, []int{1}) {
				t.Fatalf("Settle = %v, want [1]", got)
			}
			if b := g.Take(1, nil); len(b.To) != 1 || b.To[0] != 2 || len(b.Recs) != 300-limit {
				t.Fatalf("leftover to %v with %d records, want consumer 2 with %d", b.To, len(b.Recs), 300-limit)
			}
			if g.Buffered() != 10 {
				t.Fatalf("%d records left, want the light slot's 10", g.Buffered())
			}
		}},
		{"instant: nothing is returned", func(t *testing.T) {
			g := roundRobin()
			if got := input(g, 300, zero, 0); len(got) != 0 || g.Buffered() != 0 {
				t.Fatalf("Settle = %v with %d buffered", got, g.Buffered())
			}
		}},
		{"a count carried across observe follows its slot", func(t *testing.T) {
			g := newTestGate(model.PatternKeyBased, limit)
			g.Add(1)
			g.Add(2)
			for i := 0; i < 300; i++ {
				if k, v := g.Push(&rec{id: i}, keyOf(1), 1, 0, 20); v&Flush != 0 {
					g.Take(k, nil)
				}
			}
			// Consumer 1 leaves mid-input: consumer 2's slot moves from
			// index 1 to 0 and keeps its count.
			g.Remove(1)
			g.Observe()
			if got := g.Settle(); !slices.Equal(got, []int{0}) {
				t.Fatalf("Settle = %v, want [0], consumer 2's new index", got)
			}
			if b := g.Take(0, nil); len(b.To) != 1 || b.To[0] != 2 || len(b.Recs) != 300-limit {
				t.Fatalf("leftover to %v with %d records, want consumer 2 with %d", b.To, len(b.Recs), 300-limit)
			}
		}},
		{"weights in bytes", func(t *testing.T) {
			g := newTestGate(model.PatternBroadcast, 1000)
			g.Add(1)
			g.Add(2)
			for i := 0; i < 13; i++ {
				if k, v := g.Push(&rec{id: i}, 0, 100, 0, 20); v&Flush != 0 {
					g.Take(k, nil)
				}
			}
			if got := g.Settle(); !slices.Equal(got, []int{0}) {
				t.Fatalf("Settle = %v, want [0]", got)
			}
			if b := g.Take(0, nil); b.Weight != 300 {
				t.Fatalf("leftover weighs %d, want 300", b.Weight)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// BenchmarkGateSettle is one input batch on a keyed edge over four
// consumers: 256 pushes with the engine's record count cap, the Takes
// they call for, and the Settle that ends the batch.
func BenchmarkGateSettle(b *testing.B) {
	g := New[int, rec, tick](model.PatternKeyBased, 256, never, rand.New(rand.NewSource(1)))
	for c := 0; c < 4; c++ {
		g.Add(c)
	}
	spare := make([]rec, 0, 256)
	r := rec{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			r.key = uint64(i*256 + j)
			if k, v := g.Push(&r, r.key, 1, 0, 20); v&Flush != 0 {
				spare = g.Take(k, spare).Recs
			}
		}
		for _, k := range g.Settle() {
			spare = g.Take(k, spare).Recs
		}
	}
}
