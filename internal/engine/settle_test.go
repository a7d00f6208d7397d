package engine

import (
	"slices"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/ring"
)

// TestLaneSettle pins the end of an input batch on a consumer lane, with
// no sleep and no goroutine: handleBatch ships the leftover of a slot
// that the batch itself filled, and nothing else. The work→sink gate has
// a cap of 256 and a 20 ms deadline, which no case reaches.
func TestLaneSettle(t *testing.T) {
	const limit, dl = 256, 20 * time.Millisecond
	// lane builds a worker whose UDF forwards each record (and panics on
	// the record whose Value is panicAt) into a gate over n consumer rings.
	lane := func(pattern model.WiringPattern, n, panicAt int) (*task, *gate, []*ring.SPSC[batch]) {
		tk, _ := newBareTask(UDFFunc(func(ctx *Context, rec Record) {
			if rec.Value == panicAt {
				panic("udf")
			}
			ctx.Emit(0, rec)
		}))
		g, _, _ := testGate(pattern, limit)
		g.setDeadline(dl)
		rings := make([]*ring.SPSC[batch], n)
		for i := range rings {
			rings[i] = ring.New[batch](64)
			g.Add(&channelRef{to: &task{}, ring: rings[i]})
		}
		tk.lane.gates = []*gate{g}
		return tk, g, rings
	}
	// input is an input batch of n records numbered from first.
	input := func(first, n int, key func(int) uint64) batch {
		b := testBatch(n)
		for i := range b.items {
			b.items[i] = Record{Key: key(first + i), Value: first + i}
		}
		return b
	}
	zero := func(int) uint64 { return 0 }
	// shipped pops every batch off r and returns their sizes and records.
	shipped := func(r *ring.SPSC[batch]) (sizes []int, recs []Record) {
		for {
			b, ok := r.Pop()
			if !ok {
				return sizes, recs
			}
			sizes = append(sizes, len(b.items))
			recs = append(recs, b.items...)
		}
	}

	t.Run("ships the leftover", func(t *testing.T) {
		tk, g, rings := lane(model.PatternRoundRobin, 1, -1)
		tk.handleBatch(input(0, 300, zero))
		if sizes, _ := shipped(rings[0]); !slices.Equal(sizes, []int{limit, 300 - limit}) || g.Buffered() != 0 {
			t.Fatalf("ring holds batches of %v with %d records left in the gate, want [256 44] and none", sizes, g.Buffered())
		}
	})

	t.Run("no extra batch", func(t *testing.T) {
		// Six sub-cap input batches fill the slot once, across batches:
		// one size flush, and the 44 past it wait for their deadline as
		// before.
		tk, g, rings := lane(model.PatternRoundRobin, 1, -1)
		for i := 0; i < 6; i++ {
			tk.handleBatch(input(50*i, 50, zero))
		}
		if sizes, _ := shipped(rings[0]); !slices.Equal(sizes, []int{limit}) || g.Buffered() != 300-limit {
			t.Fatalf("ring holds batches of %v with %d records left in the gate, want [256] and 44", sizes, g.Buffered())
		}
	})

	t.Run("keyed", func(t *testing.T) {
		// Seven keys over two consumers: a consumer's slot fills inside an
		// input batch of 600, and its leftover ships behind the full batch
		// without overtaking it or any later record of its keys.
		tk, _, rings := lane(model.PatternKeyBased, 2, -1)
		key := func(i int) uint64 { return uint64(i % 7) }
		const batches, n = 3, 600
		for i := 0; i < batches; i++ {
			tk.handleBatch(input(n*i, n, key))
		}
		leftovers := 0
		got := make([][]Record, len(rings))
		for i, r := range rings {
			sizes, recs := shipped(r)
			for _, s := range sizes {
				if s > limit {
					t.Fatalf("a batch of %d records, over the cap", s)
				}
				if s < limit {
					leftovers++
				}
			}
			got[i] = recs
		}
		if leftovers == 0 {
			t.Fatal("no leftover shipped: no slot filled inside an input batch")
		}
		tk.lane.drainGates(time.Now())
		total := 0
		owner := map[uint64]int{}
		for i, r := range rings {
			_, recs := shipped(r)
			got[i] = append(got[i], recs...)
			total += len(got[i])
			last := map[uint64]int{}
			for _, rec := range got[i] {
				if o, ok := owner[rec.Key]; ok && o != i {
					t.Fatalf("key %d went to consumers %d and %d", rec.Key, o, i)
				}
				owner[rec.Key] = i
				if prev, ok := last[rec.Key]; ok && rec.Value.(int) <= prev {
					t.Fatalf("key %d: record %d shipped after %d", rec.Key, rec.Value, prev)
				}
				last[rec.Key] = rec.Value.(int)
			}
		}
		if total != batches*n {
			t.Fatalf("%d records shipped, want %d", total, batches*n)
		}
	})

	t.Run("UDF panic mid-batch", func(t *testing.T) {
		// The panic kills the batch's remainder (counted lost, as before)
		// and the task; the 34 records past the size flush stay buffered.
		tk, g, rings := lane(model.PatternRoundRobin, 1, 290)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the UDF's panic did not propagate")
				}
			}()
			tk.handleBatch(input(0, 300, zero))
		}()
		if sizes, _ := shipped(rings[0]); !slices.Equal(sizes, []int{limit}) || g.Buffered() != 290-limit {
			t.Fatalf("ring holds batches of %v with %d records left in the gate, want [256] and 34", sizes, g.Buffered())
		}
		if lost := tk.ex.lostRecords.Load(); lost != 10 {
			t.Fatalf("%d records lost, want the 10 the panic killed", lost)
		}
	})
}
