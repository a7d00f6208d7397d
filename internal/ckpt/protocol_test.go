package ckpt

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// failingStore is a MemStore whose Save can be made to fail: the crash
// between "decided to commit" and "persisted".
type failingStore struct {
	MemStore
	fail bool
}

func (s *failingStore) Save(c Checkpoint) error {
	if s.fail {
		return errors.New("disk full")
	}
	return s.MemStore.Save(c)
}

// rig is one source log feeding workers "w1" and "w2" into one sink
// dedup table: the smallest job the whole protocol runs on.
type rig struct {
	store *failingStore
	logs  *Registry[string]
	src   *Log[string]
	dedup *DedupTable
	coord *Coordinator[string]
}

func newRig() *rig {
	r := &rig{store: &failingStore{}, logs: NewRegistry[string](8), dedup: NewDedupTable()}
	r.src, _ = r.logs.Attach("src")
	r.coord = NewCoordinator[string](r.store, r.logs, []*DedupTable{r.dedup})
	return r
}

// emit appends n records to the source log and delivers them to the sink.
func (r *rig) emit(n int) {
	for i := 0; i < n; i++ {
		r.dedup.Admit(r.src.ID(), r.src.Append("rec"))
	}
}

// begin starts a round in which w1 and w2 each align one barrier.
func (r *rig) begin(at float64) int64 {
	return r.coord.Begin(at, map[string]int{"w1": 1, "w2": 1}, 1)
}

// ackAll acknowledges the source and both workers; the last ack must
// complete the round.
func (r *rig) ackAll(t *testing.T, id int64) Round {
	t.Helper()
	if _, done := r.coord.AckSource(id, r.src.ID(), r.src.Next()); done {
		t.Fatal("round completed before the workers aligned")
	}
	if _, done := r.coord.AckWorker(id, "w1", 0.25); done {
		t.Fatal("round completed before w2 aligned")
	}
	round, done := r.coord.AckWorker(id, "w2", 0.5)
	if !done {
		t.Fatal("last ack did not complete the round")
	}
	return round
}

func TestProtocol(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"commit persists then prunes", func(t *testing.T, r *rig) {
			r.emit(5)
			round := r.ackAll(t, r.begin(1))
			r.emit(2) // behind the barrier: not covered by the round
			out := r.coord.Commit(round, 3, 7, 0)
			want := Outcome{ID: 1, Committed: true, Duration: 2, Interval: 3, MaxStall: 0.5, Offsets: 5}
			if out != want {
				t.Fatalf("outcome = %+v, want %+v", out, want)
			}
			last, ok, _ := r.store.Latest()
			if !ok || last.ID != 1 || last.At != 3 || last.Emitted != 7 || !reflect.DeepEqual(last.SourceOffsets, map[string]uint64{"src#1": 5}) {
				t.Fatalf("stored %+v, %v", last, ok)
			}
			if r.src.Len() != 2 || r.src.Next() != 7 {
				t.Fatalf("log after commit: len %d next %d, want 2 and 7", r.src.Len(), r.src.Next())
			}
			if r.dedup.windows[r.src.ID()].base != 5 || r.dedup.Holes() != 0 {
				t.Fatal("dedup window not advanced to the watermark")
			}
			if c, a := r.coord.Counts(); c != 1 || a != 0 {
				t.Fatalf("counts = %d/%d", c, a)
			}
		}},
		{"churn during alignment discards the round at commit by generation", func(t *testing.T, r *rig) {
			r.emit(5)
			round := r.ackAll(t, r.begin(1))
			// The topology changes after the last ack, before the commit.
			if _, aborted := r.coord.Churn("scale-up"); aborted {
				t.Fatal("Churn aborted a round that had already completed")
			}
			out := r.coord.Commit(round, 2, 5, 0)
			if out.Committed || out.Reason != "topology changed during alignment" {
				t.Fatalf("outcome = %+v", out)
			}
			if _, ok, _ := r.store.Latest(); ok || r.src.Len() != 5 {
				t.Fatal("a discarded round was persisted or pruned")
			}
			if c, a := r.coord.Counts(); c != 0 || a != 1 {
				t.Fatalf("counts = %d/%d", c, a)
			}
			// The next round is injected into the new topology and commits.
			if out := r.coord.Commit(r.ackAll(t, r.begin(3)), 4, 5, 0); !out.Committed {
				t.Fatalf("round after churn: %+v", out)
			}
		}},
		{"churn aborts the round in flight", func(t *testing.T, r *rig) {
			id := r.begin(1)
			out, aborted := r.coord.Churn("task failure")
			if !aborted || out.ID != id || out.Reason != "task failure" || r.coord.InFlight() != 0 {
				t.Fatalf("Churn = %+v, %v; in flight %d", out, aborted, r.coord.InFlight())
			}
		}},
		{"a superseded round's late barriers never complete and never ack", func(t *testing.T, r *rig) {
			old := r.begin(1)
			r.coord.AckSource(old, r.src.ID(), r.src.Next())
			r.coord.AckWorker(old, "w1", 0)
			if _, ok := r.coord.Abort("superseded by next interval"); !ok {
				t.Fatal("nothing to supersede")
			}
			next := r.begin(2)
			// w2's marker of the old round arrives late.
			var w2 Aligner
			if aligned, _ := w2.Arrive(old, 2.5, r.coord.Expected(old, "w2")); aligned {
				t.Fatal("a superseded round aligned")
			}
			if _, done := r.coord.AckWorker(old, "w2", 0); done {
				t.Fatal("a superseded round completed")
			}
			if r.coord.InFlight() != next || r.coord.Expected(next, "w2") != 1 {
				t.Fatal("the late marker disturbed the new round")
			}
			if aligned, _ := w2.Arrive(next, 3, r.coord.Expected(next, "w2")); !aligned {
				t.Fatal("the new round did not align after a stale marker")
			}
		}},
		{"a task created after injection is not part of the round", func(t *testing.T, r *rig) {
			id := r.begin(1)
			if exp := r.coord.Expected(id, "w3"); exp != -1 {
				t.Fatalf("Expected(new task) = %d, want -1", exp)
			}
			var w3 Aligner
			for i := 0; i < 3; i++ {
				if aligned, _ := w3.Arrive(id, 1, r.coord.Expected(id, "w3")); aligned {
					t.Fatal("a task outside the round aligned")
				}
			}
			if _, done := r.coord.AckWorker(id, "w3", 0); done || r.coord.InFlight() != id {
				t.Fatal("an ack from outside the round was counted")
			}
			if exp := r.coord.Expected(id+1, "w1"); exp != -1 {
				t.Fatalf("Expected(round not in flight) = %d, want -1", exp)
			}
		}},
		{"duplicate acks are ignored", func(t *testing.T, r *rig) {
			r.emit(3)
			id := r.begin(1)
			r.coord.AckSource(id, r.src.ID(), 3)
			r.emit(2)
			if _, done := r.coord.AckSource(id, r.src.ID(), 5); done {
				t.Fatal("a duplicate source ack completed the round")
			}
			r.coord.AckWorker(id, "w1", 0)
			if _, done := r.coord.AckWorker(id, "w1", 9); done {
				t.Fatal("a duplicate worker ack completed the round")
			}
			round, done := r.coord.AckWorker(id, "w2", 0)
			if !done || round.Offsets[r.src.ID()] != 3 || round.MaxStall != 0 {
				t.Fatalf("round = %+v, %v; want the first ack's watermark 3", round, done)
			}
		}},
		{"a failing store leaves logs and dedup windows unpruned", func(t *testing.T, r *rig) {
			r.emit(5)
			round := r.ackAll(t, r.begin(1))
			r.store.fail = true
			out := r.coord.Commit(round, 2, 5, 0)
			if out.Committed || out.Reason != "store: disk full" {
				t.Fatalf("outcome = %+v", out)
			}
			if c, a := r.coord.Counts(); c != 0 || a != 1 {
				t.Fatalf("counts = %d/%d", c, a)
			}
			// Nothing was released: the whole suffix is still replayable
			// and the sink still tells a replayed record from a new one.
			if suffix, first := r.src.Uncommitted(nil); len(suffix) != 5 || first != 0 {
				t.Fatalf("log pruned without a persisted checkpoint: %d from %d", len(suffix), first)
			}
			if r.dedup.windows[r.src.ID()].base != 0 {
				t.Fatal("dedup window pruned without a persisted checkpoint")
			}
			// The store recovers; the next round commits everything.
			r.store.fail = false
			r.emit(1)
			if out := r.coord.Commit(r.ackAll(t, r.begin(3)), 4, 6, 0); !out.Committed || out.Offsets != 6 || out.Interval != 4 {
				t.Fatalf("round after store recovery: %+v", out)
			}
		}},
		{"replay after commit re-emits exactly [watermark, next)", func(t *testing.T, r *rig) {
			for _, rec := range []string{"a", "b", "c"} {
				r.src.Append(rec)
			}
			round := r.ackAll(t, r.begin(1)) // the barrier goes out behind "c"
			r.src.Append("d")
			r.src.Append("e")
			r.coord.Commit(round, 2, 5, 0)
			r.src.Append("f")
			suffix, first := r.src.Uncommitted(nil)
			if first != 3 || !reflect.DeepEqual(suffix, []string{"d", "e", "f"}) || first+uint64(len(suffix)) != r.src.Next() {
				t.Fatalf("replay = %v from %d, next %d", suffix, first, r.src.Next())
			}
		}},
		{"an orphaned log reattaches to the vertex's next task", func(t *testing.T, r *rig) {
			r.emit(3)
			other, reattached := r.logs.Attach("src")
			if reattached || other == r.src || other.name != "src#2" {
				t.Fatalf("second task of the vertex: %s, reattached %v", other.name, reattached)
			}
			r.logs.Orphan(r.src)
			if l, _ := r.logs.Attach("other-vertex"); l == r.src {
				t.Fatal("orphan handed to another vertex")
			}
			back, reattached := r.logs.Attach("src")
			if !reattached || back != r.src || back.Next() != 3 {
				t.Fatal("orphan not reattached with its offsets")
			}
			if assigned, uncommitted, _ := r.logs.Totals(); assigned != 3 || uncommitted != 3 {
				t.Fatalf("totals = %d assigned, %d uncommitted", assigned, uncommitted)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newRig()) })
	}
}

// TestLogCommitToKeepsOffsetsContiguous: no watermark, however wrong,
// can separate the committed base from the next offset.
func TestLogCommitToKeepsOffsetsContiguous(t *testing.T) {
	cases := []struct {
		name              string
		appends           int
		commits           []uint64
		wantLen           int
		wantFirst, wantNx uint64
	}{
		{"below base is a no-op", 10, []uint64{6, 2}, 4, 6, 10},
		{"at base is a no-op", 10, []uint64{6, 6}, 4, 6, 10},
		{"above next commits what exists", 10, []uint64{25}, 0, 10, 10},
		{"empty log ignores a watermark", 0, []uint64{7}, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := NewRegistry[int](4).Attach("v")
			for i := 0; i < tc.appends; i++ {
				l.Append(i)
			}
			for _, w := range tc.commits {
				l.CommitTo(w)
			}
			suffix, first := l.Uncommitted(nil)
			if len(suffix) != tc.wantLen || first != tc.wantFirst || l.Next() != tc.wantNx || l.Len() != tc.wantLen {
				t.Fatalf("len %d first %d next %d, want %d %d %d", len(suffix), first, l.Next(), tc.wantLen, tc.wantFirst, tc.wantNx)
			}
			if off := l.Append(-1); off != tc.wantNx {
				t.Fatalf("next Append got offset %d, want %d", off, tc.wantNx)
			}
			if len(suffix) > 0 && suffix[0] != int(first) {
				t.Fatalf("entry at offset %d is %d", first, suffix[0])
			}
		})
	}
	l, _ := NewRegistry[int](2).Attach("v")
	l.Append(0)
	if l.Full() {
		t.Fatal("full below the bound")
	}
	l.Append(1)
	if !l.Full() {
		t.Fatal("not full at the bound")
	}
}

// TestAlignerCountsToExpected: the aligner fires once, on the last
// expected marker, and drops that round's late markers.
func TestAlignerCountsToExpected(t *testing.T) {
	var a Aligner
	for i, at := range []float64{1, 1.5} {
		if aligned, _ := a.Arrive(7, at, 3); aligned {
			t.Fatalf("aligned after %d of 3 markers", i+1)
		}
	}
	aligned, stall := a.Arrive(7, 3, 3)
	if !aligned || stall != 2 {
		t.Fatalf("last marker: aligned %v stall %v, want true 2", aligned, stall)
	}
	if aligned, _ := a.Arrive(7, 4, 3); aligned {
		t.Fatal("a late marker aligned the round again")
	}
	if aligned, stall := a.Arrive(8, 5, 1); !aligned || stall != 0 {
		t.Fatalf("single-producer round: aligned %v stall %v", aligned, stall)
	}
}

// TestProtocolConcurrentAcks drives rounds the way the engine does —
// source and worker goroutines append, admit and acknowledge while the
// coordinating goroutine begins, churns and commits — so the race
// detector sees every shared path.
func TestProtocolConcurrentAcks(t *testing.T) {
	const workers, rounds = 4, 50
	r := newRig()
	barriers := make([]chan int64, workers+1) // [0] is the source
	for i := range barriers {
		barriers[i] = make(chan int64)
	}
	done := make(chan Round, 1) // one round in flight, so one completion
	var wg sync.WaitGroup
	deliver := func(round Round, complete bool) {
		if complete {
			done <- round
		}
	}
	wg.Add(1)
	go func() { // source: emit, then acknowledge at barrier emission
		defer wg.Done()
		for id := range barriers[0] {
			r.emit(3)
			deliver(r.coord.AckSource(id, r.src.ID(), r.src.Next()))
		}
	}()
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var a Aligner
			for id := range barriers[w] {
				if aligned, stall := a.Arrive(id, float64(id), r.coord.Expected(id, string(rune('a'+w)))); aligned {
					deliver(r.coord.AckWorker(id, string(rune('a'+w)), stall))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a sink task of another source's records, and a reader
		defer wg.Done()
		for n := uint64(0); ; n++ {
			select {
			case <-stop:
				return
			default:
				r.dedup.Admit(2, n%4096)
				r.src.Full()
			}
		}
	}()
	committed := 0
	for i := 0; i < rounds; i++ {
		expect := make(map[string]int, workers)
		for w := 1; w <= workers; w++ {
			expect[string(rune('a'+w))] = 1
		}
		id := r.coord.Begin(float64(i), expect, 1)
		for _, ch := range barriers {
			ch <- id
		}
		round := <-done
		if i%5 == 4 {
			r.coord.Churn("scale") // races nothing, but discards this round
		}
		if r.coord.Commit(round, float64(i)+0.5, 0, 0).Committed {
			committed++
		}
		r.coord.Counts()
		r.coord.Deliveries()
		r.logs.Totals()
	}
	close(stop)
	for _, ch := range barriers {
		close(ch)
	}
	wg.Wait()
	if c, a := r.coord.Counts(); int(c) != committed || c != rounds-rounds/5 || a != rounds/5 {
		t.Fatalf("counts = %d/%d, want %d/%d", c, a, rounds-rounds/5, rounds/5)
	}
	if assigned, _, _ := r.logs.Totals(); assigned != 3*rounds || r.dedup.Holes() != 0 {
		t.Fatalf("assigned %d holes %d", assigned, r.dedup.Holes())
	}
}
