package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestEmptyPop(t *testing.T) {
	r := New[int](4)
	if v, ok := r.Pop(); ok {
		t.Fatalf("Pop on empty ring returned %v", v)
	}
	if !r.Empty() || r.Len() != 0 {
		t.Fatalf("empty ring reports Empty=%v Len=%d", r.Empty(), r.Len())
	}
}

func TestFullPushFails(t *testing.T) {
	r := New[int](4)
	for i := 0; i < r.Cap(); i++ {
		if !r.Push(i) {
			t.Fatalf("Push %d failed below capacity", i)
		}
	}
	if r.Push(99) {
		t.Fatal("Push succeeded on a full ring")
	}
	if r.Len() != r.Cap() {
		t.Fatalf("Len = %d, want %d", r.Len(), r.Cap())
	}
	// Freeing one slot re-admits exactly one push.
	if v, ok := r.Pop(); !ok || v != 0 {
		t.Fatalf("Pop = %v,%v, want 0,true", v, ok)
	}
	if !r.Push(99) {
		t.Fatal("Push failed with a free slot")
	}
	if r.Push(100) {
		t.Fatal("Push succeeded past the freed slot")
	}
}

// TestWraparound cycles the indices far past the buffer length so the
// mask arithmetic and the cached-index fast paths are exercised across
// many laps, preserving FIFO order throughout.
func TestWraparound(t *testing.T) {
	r := New[int](8)
	next := 0
	for lap := 0; lap < 1000; lap++ {
		n := 1 + lap%r.Cap()
		for i := 0; i < n; i++ {
			if !r.Push(lap*100 + i) {
				t.Fatalf("lap %d: push %d failed", lap, i)
			}
		}
		for i := 0; i < n; i++ {
			v, ok := r.Pop()
			if !ok {
				t.Fatalf("lap %d: pop %d empty", lap, i)
			}
			if v != lap*100+i {
				t.Fatalf("lap %d: pop = %d, want %d (FIFO violated)", lap, v, lap*100+i)
			}
		}
		next++
	}
}

// TestConcurrentSPSC is the property test: one producer, one consumer,
// run under -race in CI. Every pushed value must arrive exactly once,
// in order.
func TestConcurrentSPSC(t *testing.T) {
	const total = 1 << 18
	r := New[uint64](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if r.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var next uint64
	for next < total {
		v, ok := r.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Fatalf("popped %d, want %d (order or duplication bug)", v, next)
		}
		next++
	}
	wg.Wait()
	if !r.Empty() {
		t.Fatalf("ring not empty after all pops: Len=%d", r.Len())
	}
}

// TestCloseStopsPushes mirrors the dead-consumer gate semantics: after
// the supervisor closes a crashed consumer's ring, the producer's next
// Push fails and it can account the records as lost instead of
// spinning forever on a full ring.
func TestCloseStopsPushes(t *testing.T) {
	r := New[int](4)
	if !r.Push(1) {
		t.Fatal("push before close failed")
	}
	r.Close()
	if r.Push(2) {
		t.Fatal("Push succeeded after Close")
	}
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// Buffered items remain poppable after close.
	if v, ok := r.Pop(); !ok || v != 1 {
		t.Fatalf("Pop after close = %v,%v, want 1,true", v, ok)
	}
	r.Close() // idempotent
}

// TestCloseWhileBlockedDrain: a producer spinning on a full ring is
// unblocked by a supervisor's Close, and the supervisor's Drain then
// reclaims everything buffered exactly once — the ring-plane equivalent
// of the master draining a crashed task's input channel.
func TestCloseWhileBlockedDrain(t *testing.T) {
	r := New[int](8)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			for !r.Push(i) {
				if r.Closed() {
					rejected.Add(1)
					return // producer observed the dead consumer
				}
				runtime.Gosched()
			}
		}
	}()
	// Wait until the producer has filled the ring and is blocked.
	for r.Len() < r.Cap() {
		runtime.Gosched()
	}
	r.Close()
	wg.Wait()
	if rejected.Load() != 1 {
		t.Fatalf("producer did not observe close exactly once: %d", rejected.Load())
	}
	// Drain from two goroutines; each buffered item must surface once.
	var mu sync.Mutex
	seen := map[int]int{}
	var dwg sync.WaitGroup
	for g := 0; g < 2; g++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for {
				v, ok := r.Drain()
				if !ok {
					return
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	dwg.Wait()
	if len(seen) != 8 {
		t.Fatalf("drained %d distinct items, want 8 (full ring)", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d drained %d times", v, n)
		}
	}
	if v, ok := r.Drain(); ok {
		t.Fatalf("Drain on empty ring returned %v", v)
	}
}

// TestStatsCounterChurn exercises the sampled counters under -race:
// one producer spinning against a deliberately tiny ring (so full-ring
// stalls actually occur) and blocking now and then, one consumer taking
// the blocks, and a sampler goroutine reading
// Stats the whole time. Counters must be monotone across samples (a
// torn read would violate this), the high-water mark can never exceed
// capacity, and pops can never outrun pushes.
func TestStatsCounterChurn(t *testing.T) {
	const total = 1 << 16
	r := New[uint64](8)
	stop := make(chan struct{})
	var sampleErr atomic.Value // stores the first violation message
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sampler
		defer wg.Done()
		var prev Stats
		for {
			st := r.Stats()
			switch {
			case st.Pushes < prev.Pushes:
				sampleErr.CompareAndSwap(nil, "pushes went backwards")
			case st.PushFails < prev.PushFails:
				sampleErr.CompareAndSwap(nil, "pushFails went backwards")
			case st.Pops < prev.Pops:
				sampleErr.CompareAndSwap(nil, "pops went backwards")
			case st.HighWater < prev.HighWater:
				sampleErr.CompareAndSwap(nil, "highWater went backwards")
			case st.HighWater > uint64(r.Cap()):
				sampleErr.CompareAndSwap(nil, "highWater exceeds capacity")
			case st.Pops > st.Pushes:
				sampleErr.CompareAndSwap(nil, "pops outran pushes")
			}
			prev = st
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	go func() { // producer: blocks every 64th full ring it meets
		defer wg.Done()
		for i, fails := uint64(0), 0; i < total; {
			if r.Push(i) {
				i++
			} else if fails++; fails%64 == 0 {
				r.Block()
				runtime.Gosched()
				r.Unblock()
			} else {
				runtime.Gosched()
			}
		}
	}()
	for popped := 0; popped < total; {
		if _, ok := r.Pop(); ok {
			r.Drained()
			popped++
		} else {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if msg := sampleErr.Load(); msg != nil {
		t.Fatalf("sampler observed inconsistent counters: %v", msg)
	}
	st := r.Stats()
	if st.Pushes != total || st.Pops != total {
		t.Fatalf("final counters pushes=%d pops=%d, want %d each", st.Pushes, st.Pops, total)
	}
	if st.HighWater == 0 || st.HighWater > uint64(r.Cap()) {
		t.Fatalf("highWater = %d, want in [1,%d]", st.HighWater, r.Cap())
	}
}

// TestStatsFullRingCountsStalls pins the stall semantics: a rejected
// push on a full ring counts nothing, each Block — the producer parks —
// counts one stall, and a rejected push on a closed ring counts none
// (teardown noise).
func TestStatsFullRingCountsStalls(t *testing.T) {
	r := New[int](4)
	for i := 0; i < r.Cap(); i++ {
		r.Push(i)
	}
	for i := 0; i < 3; i++ {
		if r.Push(99) {
			t.Fatal("push succeeded on full ring")
		}
	}
	if got := r.Stats().PushFails; got != 0 {
		t.Fatalf("pushFails after rejected pushes = %d, want 0", got)
	}
	r.Block()
	r.Unblock()
	r.Block()
	st := r.Stats()
	if st.PushFails != 2 {
		t.Fatalf("pushFails = %d, want 2 (one per Block)", st.PushFails)
	}
	if st.HighWater != uint64(r.Cap()) {
		t.Fatalf("highWater = %d, want %d", st.HighWater, r.Cap())
	}
	r.Close()
	r.Push(100) // closed rejection must not count as a stall
	if got := r.Stats().PushFails; got != 2 {
		t.Fatalf("pushFails after closed push = %d, want 2", got)
	}
}

// TestDrainedWakesAtHalfCapacity pins the handoff: a blocked producer is
// due a wake once the ring has drained to half its capacity, exactly once
// per Block, and never when it did not block or withdrew the Block.
func TestDrainedWakesAtHalfCapacity(t *testing.T) {
	r := New[int](8)
	for r.Push(0) {
	}
	if _, ok := r.Pop(); !ok || r.Drained() {
		t.Fatal("Drained with no producer blocked")
	}
	r.Push(0)
	r.Block()
	for r.Len() > r.Cap()/2+1 {
		r.Pop()
		if r.Drained() {
			t.Fatalf("Drained at %d of capacity %d, above half", r.Len(), r.Cap())
		}
	}
	r.Pop()
	if !r.Drained() {
		t.Fatalf("not Drained at %d of capacity %d", r.Len(), r.Cap())
	}
	r.Pop()
	if r.Drained() {
		t.Fatal("Drained twice for one Block")
	}
	r.Block()
	r.Unblock()
	r.Pop()
	if r.Drained() {
		t.Fatal("Drained after the producer withdrew its Block")
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	r := New[uint64](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for popped := 0; popped < b.N; {
			if _, ok := r.Pop(); ok {
				popped++
			} else {
				runtime.Gosched()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; {
		if r.Push(uint64(i)) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
}
