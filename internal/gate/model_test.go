package gate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nephelix/internal/model"
)

// The model-based test replays an op string against the gate and a
// deliberately naive model (buffers in maps keyed by consumer, as the
// pre-extraction engine had them) and checks after every op:
//
//   - conservation: every pushed record leaves exactly once — in a batch
//     or counted dropped — and nothing is left after a drain;
//   - addressing: a batch goes to consumers of the set observed at that
//     call; a keyed batch to the consumer its records are pinned to; a
//     broadcast batch to all of them; rotation visits every consumer
//     within n flushes of an unchanged set;
//   - triggers: Push says Flush, and Due lists a buffer, exactly when
//     the model's instant / cap / oldest+deadline condition holds;
//     Settle lists one exactly when, since the last Settle, its consumer
//     was pushed a cap, hit the size trigger and still holds records.

type mbuf struct {
	ids    []int
	weight int
	oldest tick
}

type harness struct {
	t        testing.TB
	g        *testGate
	pattern  model.WiringPattern
	limit    int
	bytes    bool // weight is rec.size, not 1
	handBack bool // churn policy: ship stranded to the leaver (sim) instead of rehashing (engine)

	now      tick
	dl       int64
	set      []int // control side
	changed  bool  // set swapped since the producer last loaded it
	observed []int // what the producer last loaded
	nextC    int
	nextID   int

	bufs     map[int]*mbuf // by consumer; key -1 is the shared buffer
	pushed   map[int]int   // weight pushed since the last Settle, by consumer
	filled   map[int]bool  // a push since the last Settle hit the cap
	keyOf    map[int]uint64
	sizeOf   map[int]int
	state    map[int]byte // 'b' buffered, 's' shipped, 'd' dropped
	rotation []int        // rotation targets since the set last changed
}

func (h *harness) weight(id int) int {
	if h.bytes {
		return h.sizeOf[id]
	}
	return 1
}

func (h *harness) leave(id int, how byte) {
	if h.state[id] != 'b' {
		h.t.Fatalf("record %d left twice (%c then %c)", id, h.state[id], how)
	}
	h.state[id] = how
}

func (h *harness) route(r *rec) (uint64, int) { return r.key, h.weight(r.id) }

// full is Push's trigger, due adds the lapsed deadline.
func (h *harness) full(b *mbuf) bool { return h.dl <= 0 || b.weight >= h.limit }

func (h *harness) due(b *mbuf) bool {
	return h.full(b) || h.dl != never && h.now >= b.oldest+tick(h.dl)
}

// observe mirrors a snapshot load on the model side; a changed snapshot
// restarts the rotation even if it lists the same consumers again.
func (h *harness) observe() {
	if h.changed {
		h.changed = false
		h.observed = slices.Clone(h.set)
		h.rotation = h.rotation[:0]
	}
}

// slots is how many buffers the gate has for the observed set.
func (h *harness) slots() int {
	if h.pattern == model.PatternKeyBased {
		return len(h.observed)
	}
	return 1
}

// owner returns the model buffer key a gate slot stands for.
func (h *harness) owner(k int) int {
	if h.pattern == model.PatternKeyBased {
		return h.observed[k]
	}
	return -1
}

func (h *harness) take(k int) {
	own := h.owner(k)
	mb := h.bufs[own]
	b := h.g.Take(k, nil)
	if mb == nil || len(mb.ids) == 0 {
		h.t.Fatalf("took slot %d (%d records) the model holds empty", k, len(b.Recs))
	}
	var got []int
	for _, r := range b.Recs {
		got = append(got, r.id)
	}
	if !slices.Equal(got, mb.ids) || b.Oldest != mb.oldest || b.Weight != mb.weight {
		h.t.Fatalf("slot %d: took %v aged %d weighing %d, model has %v aged %d weighing %d",
			k, got, b.Oldest, b.Weight, mb.ids, mb.oldest, mb.weight)
	}
	delete(h.bufs, own)
	switch {
	case len(h.observed) == 0:
		if len(b.To) != 0 {
			h.t.Fatalf("batch to %v with no consumer observed", b.To)
		}
		for _, id := range got {
			h.leave(id, 'd')
		}
		return
	case h.pattern == model.PatternKeyBased:
		if !slices.Equal(b.To, []int{own}) {
			h.t.Fatalf("keyed batch pinned to %d went to %v", own, b.To)
		}
	case h.pattern == model.PatternBroadcast:
		if !slices.Equal(b.To, h.observed) {
			h.t.Fatalf("broadcast batch to %v, observed set %v", b.To, h.observed)
		}
	default:
		if len(b.To) != 1 || !slices.Contains(h.observed, b.To[0]) {
			h.t.Fatalf("rotation batch to %v, observed set %v", b.To, h.observed)
		}
		h.rotation = append(h.rotation, b.To[0])
		if n := len(h.observed); len(h.rotation) >= n {
			last := slices.Clone(h.rotation[len(h.rotation)-n:])
			slices.Sort(last)
			if len(slices.Compact(last)) != n {
				h.t.Fatalf("rotation over %v: last %d flushes went to %v", h.observed, n, h.rotation[len(h.rotation)-n:])
			}
		}
	}
	for _, id := range got {
		h.leave(id, 's')
	}
}

// settle applies the churn policy to what the gate hands back.
func (h *harness) settle() {
	checkAligned(h.t, h.g)
	for _, b := range h.g.Stranded() {
		own := b.To[0]
		mb := h.bufs[own]
		if slices.Contains(h.observed, own) || mb == nil || len(mb.ids) != len(b.Recs) || mb.weight != b.Weight {
			h.t.Fatalf("stranded buffer of %d (%d records weighing %d): observed %v, model %v", own, len(b.Recs), b.Weight, h.observed, mb)
		}
		delete(h.bufs, own)
		if h.handBack {
			for _, id := range mb.ids {
				h.leave(id, 's') // shipped to the leaving consumer
			}
			continue
		}
		dropped := h.g.Rehash(b, h.route)
		if n := len(h.observed); n == 0 {
			if dropped != len(mb.ids) {
				h.t.Fatalf("rehash without consumers dropped %d of %d", dropped, len(mb.ids))
			}
			for _, id := range mb.ids {
				h.leave(id, 'd')
			}
		} else {
			for _, id := range mb.ids {
				h.buffer(h.observed[mix64(h.keyOf[id])%uint64(n)], id, h.weight(id), mb.oldest)
			}
		}
	}
	if got, want := h.g.Buffered(), h.buffered(); got != want {
		h.t.Fatalf("gate holds %d records, model %d", got, want)
	}
}

func (h *harness) buffer(own, id, w int, at tick) *mbuf {
	mb := h.bufs[own]
	if mb == nil {
		mb = &mbuf{oldest: at}
		h.bufs[own] = mb
	}
	mb.oldest = min(mb.oldest, at)
	mb.ids = append(mb.ids, id)
	mb.weight += w
	return mb
}

func (h *harness) buffered() (n int) {
	for _, mb := range h.bufs {
		n += len(mb.ids)
	}
	return n
}

func (h *harness) push(key uint64, size int) {
	id := h.nextID
	h.nextID++
	h.keyOf[id], h.sizeOf[id], h.state[id] = key, size, 'b'
	r := rec{id: id, key: key, size: size}
	k, v := h.g.Push(&r, key, h.weight(id), h.now, h.dl)
	h.observe()
	if len(h.observed) == 0 {
		if v&Dropped == 0 {
			h.t.Fatalf("push without consumers: verdict %b", v)
		}
		h.leave(id, 'd')
		h.settle()
		return
	}
	own := -1
	if h.pattern == model.PatternKeyBased {
		own = h.observed[mix64(key)%uint64(len(h.observed))]
	}
	if got := h.owner(k); got != own {
		h.t.Fatalf("record with key %d pinned to %d, want %d", key, got, own)
	}
	mb := h.buffer(own, id, h.weight(id), h.now)
	h.pushed[own] += h.weight(id)
	if mb.weight >= h.limit {
		h.filled[own] = true
	}
	if want := h.full(mb); want != (v&Flush != 0) {
		h.t.Fatalf("push verdict %b with dl=%d weight=%d limit=%d", v, h.dl, mb.weight, h.limit)
	}
	if v&Flush != 0 {
		h.take(k)
	}
	h.settle()
}

func (h *harness) flushDue() {
	h.g.Observe()
	h.observe()
	h.settle()
	slots := slices.Clone(h.g.Due(h.now, h.dl))
	var want []int
	for k := 0; k < h.slots(); k++ {
		if mb := h.bufs[h.owner(k)]; mb != nil && h.due(mb) {
			want = append(want, k)
		}
	}
	if !slices.Equal(slots, want) {
		h.t.Fatalf("due at %d (dl %d) = %v, model wants %v", h.now, h.dl, slots, want)
	}
	for _, k := range slots {
		h.take(k)
	}
	if at, ok := h.g.NextDue(h.dl); ok && !h.now.Before(at) {
		h.t.Fatalf("next due %d is not after now %d once everything due was taken", at, h.now)
	}
}

// endInput ends an input batch: Settle must list exactly the slots whose
// consumer the model saw pushed a cap and filled since the last one and
// that still hold records; they ship, and every count restarts.
func (h *harness) endInput() {
	slots := slices.Clone(h.g.Settle())
	var want []int
	for k := 0; k < h.slots(); k++ {
		own := h.owner(k)
		if mb := h.bufs[own]; mb != nil && h.filled[own] && h.pushed[own] >= h.limit {
			want = append(want, k)
		}
	}
	if !slices.Equal(slots, want) {
		h.t.Fatalf("settle = %v, model wants %v (pushed %v, filled %v)", slots, want, h.pushed, h.filled)
	}
	clear(h.pushed)
	clear(h.filled)
	for _, k := range slots {
		h.take(k)
	}
}

func (h *harness) drain() {
	h.g.Observe()
	h.observe()
	h.settle()
	for _, k := range slices.Clone(h.g.NonEmpty()) {
		h.take(k)
	}
	if n := h.g.Buffered(); n != 0 || h.buffered() != 0 {
		h.t.Fatalf("%d records (model %d) left after drain", n, h.buffered())
	}
}

// runOps interprets data as a gate configuration followed by an op
// stream and returns the harness after a final drain.
func runOps(t testing.TB, data []byte) *harness {
	if len(data) < 2 {
		return nil
	}
	cfg := data[0]
	h := &harness{
		t:        t,
		pattern:  []model.WiringPattern{model.PatternRoundRobin, model.PatternBroadcast, model.PatternKeyBased}[cfg&3%3],
		bytes:    cfg&8 != 0,
		handBack: cfg&16 != 0,
		limit:    1 + int(data[1]%16),
		dl:       50,
		bufs:     map[int]*mbuf{},
		pushed:   map[int]int{},
		filled:   map[int]bool{},
		keyOf:    map[int]uint64{},
		sizeOf:   map[int]int{},
		state:    map[int]byte{},
	}
	if h.bytes {
		h.limit *= 16
	}
	h.g = newTestGate(h.pattern, h.limit)
	for _, op := range data[2:] {
		arg := int(op >> 3)
		switch op & 7 {
		case 0, 1, 2: // push dominates
			h.push(uint64(arg), 1+arg)
		case 3:
			h.nextC++
			h.set = append(h.set, h.nextC)
			h.g.Add(h.nextC)
			h.changed = true
		case 4:
			if len(h.set) > 0 {
				i := arg % len(h.set)
				h.g.Remove(h.set[i])
				h.set = slices.Delete(h.set, i, i+1)
				h.changed = true
			}
		case 5:
			h.now += tick(arg)
			h.flushDue()
		case 6:
			h.dl = []int64{0, 50, 50, never}[arg%4]
		case 7:
			if arg%2 == 1 {
				h.endInput()
			} else {
				h.drain()
			}
		}
	}
	h.drain()
	for id, st := range h.state {
		if st == 'b' {
			t.Fatalf("record %d never left the gate", id)
		}
	}
	return h
}

// ops builds an op string for the table below.
func ops(cfg, limit byte, steps ...byte) []byte { return append([]byte{cfg, limit}, steps...) }

func op(code, arg int) byte { return byte(arg<<3 | code) }

func rep(n int, steps ...byte) (out []byte) {
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}

func TestGateModel(t *testing.T) {
	add, rm, push, due, drain, endInput := op(3, 0), op(4, 0), op(0, 0), op(5, 10), op(7, 0), op(7, 1)
	for pi, pname := range []string{"rotation", "broadcast", "keyed"} {
		for _, unit := range []struct {
			name string
			bits byte
		}{{"records", 0}, {"bytes", 8}} {
			for _, policy := range []struct {
				name string
				bits byte
			}{{"rehash", 0}, {"handback", 16}} {
				cfg := byte(pi) | unit.bits | policy.bits
				t.Run(fmt.Sprintf("%s/%s/%s", pname, unit.name, policy.name), func(t *testing.T) {
					var pushes []byte
					for k := 0; k < 31; k++ {
						pushes = append(pushes, op(k%3, k))
					}
					cases := map[string][]byte{
						"no consumers":      ops(cfg, 3, push, push, due, drain),
						"cap":               ops(cfg, 3, append([]byte{add, add, add}, rep(4, pushes...)...)...),
						"deadline":          ops(cfg, 15, append([]byte{add, add}, rep(6, push, op(1, 7), op(5, 20), op(5, 31))...)...),
						"instant":           ops(cfg, 15, append([]byte{add, add, add, op(6, 0)}, pushes...)...),
						"size only":         ops(cfg, 4, append([]byte{add, add, op(6, 3)}, append(pushes, due, op(5, 31))...)...),
						"scale up mid-fill": ops(cfg, 15, append([]byte{add}, append(pushes, append([]byte{add, add}, append(pushes, op(5, 31), op(5, 31))...)...)...)...),
						"scale down":        ops(cfg, 15, append([]byte{add, add, add}, append(pushes, append([]byte{rm, op(4, 1)}, append(pushes, rm)...)...)...)...),
						"last one leaves":   ops(cfg, 15, append([]byte{add}, append(pushes, rm, push, add, push)...)...),
						"remove then add":   ops(cfg, 15, append([]byte{add, add}, append(pushes, rm, add, due, push, op(5, 31), op(5, 31))...)...),
						"end of input":      ops(cfg, 4, append([]byte{add, add, endInput}, append(pushes, endInput, push, push, endInput, op(6, 3), push, push, push, push, push, endInput, rm, endInput)...)...),
					}
					// A long seeded walk: small cap, slow clock, steady churn.
					rng := rand.New(rand.NewSource(int64(cfg)))
					walk := ops(cfg, 3, add, add, add)
					for i := 0; i < 4000; i++ {
						walk = append(walk, byte(rng.Intn(256)))
					}
					cases["walk"] = walk
					for name, data := range cases {
						t.Run(name, func(t *testing.T) { runOps(t, data) })
					}
				})
			}
		}
	}
}

// FuzzGateChurn feeds random push / add / remove / due / deadline /
// drain / end-of-input sequences over all three patterns, both size
// units and both churn policies through the model above.
func FuzzGateChurn(f *testing.F) {
	for cfg := byte(0); cfg < 32; cfg++ {
		if cfg%4 == 3 {
			continue
		}
		f.Add(ops(cfg, 5, op(3, 0), op(3, 0), op(0, 1), op(1, 9), op(4, 0), op(2, 17), op(5, 30), op(3, 0), op(0, 4), op(6, 0), op(1, 2), op(7, 0)))
		f.Add(ops(cfg, 3, op(3, 0), op(3, 0), op(0, 1), op(1, 1), op(2, 1), op(0, 1), op(7, 1), op(6, 3), op(0, 2), op(1, 2), op(2, 2), op(3, 0), op(0, 2), op(7, 3), op(4, 1), op(7, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
