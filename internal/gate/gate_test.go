package gate

import (
	"math"
	"math/rand"
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
