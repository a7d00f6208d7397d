package engine

import (
	"math"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/qos"
)

// newBareTask builds a read-ready sink task around udf that handleBatch
// can be driven on directly: no rings, no gates, no master. Interval
// reports are pushed an hour out so the reporter accumulates the whole
// test.
func newBareTask(udf UDF) (*task, *execution) {
	ex := &execution{cfg: Config{MeasurementInterval: time.Hour}.withDefaults(), start: time.Now()}
	id := model.TaskID{Vertex: "v", Index: 0}
	tk := &task{
		id:      id,
		ex:      ex,
		udf:     udf,
		inChans: make(map[chanKey]*inChannel),
		stride:  1,
	}
	e := &emitter{t: tk, reporter: qos.NewTaskReporter(id), lastFlush: time.Now()}
	e.reporter.ReadReady() // as newTask does for !rw
	e.ctx = Context{e: e}
	tk.lane = e
	return tk, ex
}

func testBatch(n int) batch {
	now := time.Now()
	return batch{items: make([]Record, n), oldestBuf: now, shipped: now}
}

// spinFor burns d of wall time without yielding.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// strideCanGrow reports whether this build on this host can show a stride
// above 1 at all: the bookkeeping of one clock read has to fit well
// inside the budget, which it does not under the race detector's
// instrumentation (1.6 µs for a one-record batch against 0.2 µs without).
func strideCanGrow() bool {
	tk, _ := newBareTask(UDFFunc(func(*Context, Record) {}))
	best := time.Hour
	for i := 0; i < 200; i++ {
		b := testBatch(1)
		t0 := time.Now()
		tk.handleBatch(b)
		best = min(best, time.Since(t0))
	}
	return best < clockBudget/4
}

// clockSeen drives one batch and returns the task's amortized clock as
// each record's UDF call saw it: a clock read happened after record i
// iff seen[i+1] differs from seen[i].
func clockSeen(tk *task, b batch, inner func(i int)) []time.Time {
	seen := make([]time.Time, 0, len(b.items))
	tk.udf = UDFFunc(func(*Context, Record) {
		seen = append(seen, tk.lane.now)
		if inner != nil {
			inner(len(seen) - 1)
		}
	})
	tk.handleBatch(b)
	return seen
}

// TestStrideSlowUDFTimedPerRecord (a): a UDF slower than the clock budget
// keeps stride 1 — a read after every record, one service sample each,
// with the per-record variation intact.
func TestStrideSlowUDFTimedPerRecord(t *testing.T) {
	tk, _ := newBareTask(nil)
	const batches, size = 4, 32
	for r := 0; r < batches; r++ {
		seen := clockSeen(tk, testBatch(size), func(i int) {
			spinFor(time.Duration(20+40*(i%2)) * time.Microsecond)
		})
		for i := 1; i < len(seen); i++ {
			if seen[i].Equal(seen[i-1]) {
				t.Fatalf("batch %d: no clock read between records %d and %d of a 20+ µs UDF", r, i-1, i)
			}
		}
		if tk.stride != 1 {
			t.Fatalf("batch %d: stride = %d, want 1", r, tk.stride)
		}
	}
	rep := tk.lane.reporter.Flush()
	if rep.ServiceCount != batches*size || rep.TaskLatencyCount != batches*size {
		t.Errorf("ServiceCount = %d, TaskLatencyCount = %d, want %d each", rep.ServiceCount, rep.TaskLatencyCount, batches*size)
	}
	// Alternating 20 µs / 60 µs calls: CV ≈ 0.5 when timed one by one,
	// ≈ 0 had they been smoothed into groups.
	if rep.ServiceMean < 30e-6 || rep.ServiceCV < 0.25 {
		t.Errorf("service mean %.1f µs, CV %.2f: per-record timing lost", rep.ServiceMean*1e6, rep.ServiceCV)
	}
}

// TestStrideCheapUDFAmortizesClock (b): a no-op UDF over 256-record
// batches reaches stride > 1, and what must stay exact does: counts,
// and Σ service = busyNs.
func TestStrideCheapUDFAmortizesClock(t *testing.T) {
	tk, _ := newBareTask(nil)
	const batches, size = 40, 256
	reads, widest, processed := 0, 0, 0
	began := time.Now()
	for r := 0; r < batches; r++ {
		seen := clockSeen(tk, testBatch(size), nil)
		processed += len(seen)
		for i := 1; i < len(seen); i++ {
			if !seen[i].Equal(seen[i-1]) {
				reads++
			}
		}
		widest = max(widest, tk.stride)
	}
	wall := time.Since(began).Seconds()
	if !strideCanGrow() {
		t.Log("clock reads cost more than the budget here (race detector?): checking the accounting only")
	} else if widest <= 1 {
		t.Errorf("stride never exceeded 1 over %d no-op records", batches*size)
	} else if reads > batches*size/4 {
		t.Errorf("%d clock reads inside %d no-op records: the clock is still on the per-record path", reads, batches*size)
	}
	const total = batches * size
	if got := processed; got != total {
		t.Errorf("processed = %d, want %d", got, total)
	}
	rep := tk.lane.reporter.Flush()
	if rep.ServiceCount != total || rep.TaskLatencyCount != total || rep.InterarrivalCount != total-1 {
		t.Errorf("ServiceCount = %d, TaskLatencyCount = %d, InterarrivalCount = %d, want %d, %d, %d",
			rep.ServiceCount, rep.TaskLatencyCount, rep.InterarrivalCount, total, total, total-1)
	}
	busy := float64(tk.busyNs.Load()) / 1e9
	if sum := rep.ServiceMean * float64(rep.ServiceCount); math.Abs(sum-busy) > 0.01*busy {
		t.Errorf("Σ service = %.9f s, busyNs = %.9f s: more than 1%% apart", sum, busy)
	}
	// The interarrival chain telescopes from the first record's start to
	// the last one's: all the busy time, none of it twice.
	if sum := rep.InterarrivalMean * float64(rep.InterarrivalCount); sum < 0.98*busy || sum > wall {
		t.Errorf("Σ interarrival = %.9f s, want within [busy %.9f s, wall %.9f s]", sum, busy, wall)
	}
}

// TestStrideReturnsToOneWhenUDFTurnsSlow (c): the stride a cheap phase
// earned is given up within one batch of the UDF turning slow.
func TestStrideReturnsToOneWhenUDFTurnsSlow(t *testing.T) {
	if !strideCanGrow() {
		t.Skip("clock reads cost more than the budget here (race detector?): the stride may never leave 1")
	}
	tk, _ := newBareTask(nil)
	for r := 0; r < 100 && tk.stride <= 1; r++ {
		clockSeen(tk, testBatch(256), nil)
	}
	if tk.stride <= 1 {
		t.Fatalf("stride = %d after the cheap phase, want > 1", tk.stride)
	}
	seen := clockSeen(tk, testBatch(256), func(int) { spinFor(20 * time.Microsecond) })
	if tk.stride != 1 {
		t.Errorf("stride = %d one batch after the UDF turned slow, want 1", tk.stride)
	}
	// After the first (at most maxStride-record) group the slow records
	// are timed one by one.
	for i := maxStride + 1; i < len(seen); i++ {
		if seen[i].Equal(seen[i-1]) {
			t.Fatalf("no clock read between slow records %d and %d", i-1, i)
		}
	}
}

// TestStrideForcedReads (d): a record that carries a trace span, and a
// Sampled record under LatencyReadWrite, each force a clock read however
// large the stride; a Sampled record under read-ready latency does not.
func TestStrideForcedReads(t *testing.T) {
	readsAfter := func(seen []time.Time) []int {
		var at []int
		for i := 1; i < len(seen); i++ {
			if !seen[i].Equal(seen[i-1]) {
				at = append(at, i-1)
			}
		}
		return at
	}
	// The stride only changes at a read, so with stride > len(batch) the
	// first read inside the batch can only be a forced one — whatever the
	// host does to the timing.
	first := func(t *testing.T, got []int, want int) {
		t.Helper()
		if len(got) == 0 || got[0] != want {
			t.Errorf("clock reads inside the batch after records %v, want the first after record %d", got, want)
		}
	}

	t.Run("span", func(t *testing.T) {
		tk, _ := newBareTask(nil)
		tr := obs.NewTracer(1)
		b := testBatch(16)
		b.items[5].span = tr.StartSpan(0)
		tk.stride = maxStride
		seen := clockSeen(tk, b, nil)
		first(t, readsAfter(seen), 5)
		if n, _ := tr.EndToEnd(); n != 1 {
			t.Errorf("finished spans = %d, want 1 (a sink finishes the span at the forced read)", n)
		}
		if got := len(seen); got != 16 {
			t.Errorf("processed = %d, want 16", got)
		}
	})
	t.Run("sampled read-write", func(t *testing.T) {
		tk, _ := newBareTask(nil)
		tk.rw = true
		tk.lane.reporter = qos.NewTaskReporter(tk.id) // not read-ready
		b := testBatch(16)
		b.items[9].Sampled = true
		tk.stride = maxStride
		start := time.Now()
		first(t, readsAfter(clockSeen(tk, b, nil)), 9)
		e := tk.lane
		if len(e.rwPending) != 1 {
			t.Fatalf("rwPending holds %d consume times, want 1", len(e.rwPending))
		}
		if tc := e.rwPending[0]; tc.Before(start) || tc.After(e.now) {
			t.Errorf("consume time %v outside the batch's span [%v, %v]", tc, start, e.now)
		}
		rep := tk.lane.reporter.Flush()
		if rep.ServiceCount != 16 || rep.TaskLatencyCount != 0 {
			t.Errorf("ServiceCount = %d, TaskLatencyCount = %d, want 16 and 0 (read-write latency completes at the next write)",
				rep.ServiceCount, rep.TaskLatencyCount)
		}
	})
	t.Run("sampled read-ready", func(t *testing.T) {
		tk, _ := newBareTask(nil)
		b := testBatch(16)
		b.items[9].Sampled = true
		tk.stride = maxStride
		if got := readsAfter(clockSeen(tk, b, nil)); len(got) != 0 {
			t.Errorf("clock reads after records %v: a Sampled record needs no read under read-ready latency", got)
		}
	})
}

// TestStridePanicMidGroup (e): a UDF panicking inside a group of records
// not yet accounted leaves every record of the batch either processed or
// lost.
func TestStridePanicMidGroup(t *testing.T) {
	tk, ex := newBareTask(nil)
	calls, processed := 0, 0
	tk.udf = UDFFunc(func(*Context, Record) {
		if calls++; calls == 7 {
			panic("mid-group")
		}
		processed++
	})
	tk.stride = maxStride
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("UDF panic must propagate to the supervisor defer")
			}
		}()
		tk.handleBatch(testBatch(10))
	}()
	lost := ex.lostRecords.Load()
	if processed != 6 || lost != 4 {
		t.Errorf("processed = %d, lost = %d, want 6 and 4 (the panicking record and the remainder are lost)", processed, lost)
	}
}
