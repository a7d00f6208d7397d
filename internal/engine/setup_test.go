package engine

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/qos"
	"nephelix/internal/ring"
	"nephelix/internal/workload"
)

// What a task costs to start (DESIGN.md): Submit, a scale-up and a
// restart build tasks through createTask, newTask and connect, the last
// two under ex.mu. These tests pin what that path allocates.

// startSpec is the benchmark's reference job, src(1) → work(2) → sink(1)
// over round-robin wiring, with work allowed up to maxP tasks. Its
// source emits nothing, so what the launched tasks do after Submit
// returns allocates next to nothing.
func startSpec(tb testing.TB, maxP int) *JobSpec {
	return NewJobSpec(buildChain(tb, 2, maxP, model.PatternRoundRobin)).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 60},
			Emit:     func(*Context) {},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return UDFFunc(func(*Context, Record) {}) })
}

// allocated returns the bytes f allocates on the heap (every goroutine's
// allocations while f runs count).
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// submitOnce submits the reference job, stops it and waits for it to
// end; it returns what Submit alone allocated.
func submitOnce(tb testing.TB) uint64 {
	spec := startSpec(tb, 2)
	eng := New(Config{Seed: 1})
	var exec *Execution
	bytes := allocated(func() {
		var err error
		if exec, err = eng.Submit(spec, nil); err != nil {
			tb.Fatal(err)
		}
	})
	exec.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		tb.Fatal(err)
	}
	return bytes
}

// TestSubmitAllocBudget pins what Submit of the reference job allocates:
// at most 64 KiB, the median of nine submissions; it measures ≈ 40 KiB,
// 27.6 KiB of which are the four rings. Each task and output gate draws
// from an eight-byte splitmix64 generator and the master's mailboxes are
// sized from the job: a math/rand default source per task and gate
// (4.9 KB each, seven per Submit) and fixed 4096/1024/1024-entry
// mailboxes (≈ 104 KB) made it ≈ 185 KiB.
func TestSubmitAllocBudget(t *testing.T) {
	const runs, budget = 9, 64 << 10
	var got []uint64
	for i := 0; i < runs; i++ {
		got = append(got, submitOnce(t))
	}
	slices.Sort(got)
	t.Logf("Submit allocates %.1f KiB (median of %d; min %.1f, max %.1f)",
		kib(got[runs/2]), runs, kib(got[0]), kib(got[runs-1]))
	if got[runs/2] > budget {
		t.Errorf("Submit allocates %.1f KiB at the median, want ≤ %.0f KiB", kib(got[runs/2]), kib(budget))
	}
}

func kib(b uint64) float64 { return float64(b) / 1024 }

// scaleUpBudget is what one added task may allocate beyond its rings:
// the task, its lane and output gate, their generators, its QoS reporter
// and the wiring's copy-on-write slices. It measures ≈ 1.9 KiB; a
// math/rand default source per task and per gate made it ≈ 12.3 KiB.
const scaleUpBudget = 4 << 10

// ringSink keeps the ring TestScaleUpAllocBudget measures on the heap,
// where connect's rings live.
var ringSink *ring.SPSC[batch]

// TestScaleUpAllocBudget pins what one scale-up of work allocates on the
// master, under ex.mu: createTask plus wiring into one producer and one
// consumer, at most two rings plus scaleUpBudget. It builds the job
// without launching it, so nothing else allocates meanwhile.
func TestScaleUpAllocBudget(t *testing.T) {
	const ups = 6
	ex, err := New(Config{Seed: 1}).build(startSpec(t, 2+ups), nil)
	if err != nil {
		t.Fatal(err)
	}
	ringBytes := allocated(func() { ringSink = ring.New[batch](min(ex.cfg.QueueCapacity, ringDepth)) })
	var got []uint64
	for i := 0; i < ups; i++ {
		got = append(got, allocated(func() {
			tk, err := ex.createTask("work")
			if err != nil {
				t.Fatal(err)
			}
			ex.wireTaskLocked(tk)
		}))
	}
	slices.Sort(got)
	t.Logf("a scale-up allocates %.1f KiB (median of %d), two rings of %.1f KiB included",
		kib(got[ups/2]), ups, kib(ringBytes))
	if extra := int64(got[ups/2]) - 2*int64(ringBytes); extra > scaleUpBudget {
		t.Errorf("a scale-up allocates %.1f KiB beyond its two rings, want ≤ %.0f KiB",
			float64(extra)/1024, kib(scaleUpBudget))
	}
}

// TestOfferReportDropRule shows the drop-on-full rule at the job-sized
// mailbox, with no master reading it: offering capacity + k reports
// keeps capacity of them and drops exactly k.
func TestOfferReportDropRule(t *testing.T) {
	const k = 5
	ex, err := New(Config{Seed: 1}).build(startSpec(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two intervals of reports from 4 tasks and 4 inbound channels.
	if c := cap(ex.reports); c != 16 {
		t.Fatalf("reports mailbox holds %d, want 16", c)
	}
	if c, r := cap(ex.failures), cap(ex.restarts); c != 8 || r != 8 {
		t.Fatalf("failure and restart mailboxes hold %d and %d, want 8 each", c, r)
	}
	for i := 0; i < cap(ex.reports)+k; i++ {
		ex.offerReport(taskReportMsg{report: qos.TaskReport{}})
	}
	if n, dropped := len(ex.reports), ex.droppedReports.Load(); n != cap(ex.reports) || dropped != k {
		t.Errorf("%d reports queued and %d dropped, want %d and %d", n, dropped, cap(ex.reports), k)
	}
}

// BenchmarkSubmit is one start of the reference job: Submit, Stop, Wait.
// Its B/op and ns/op are the start cost (TestSubmitAllocBudget pins
// Submit's own share of the bytes).
func BenchmarkSubmit(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := startSpec(b, 2)
		b.StartTimer()
		exec, err := New(Config{Seed: 1}).Submit(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		exec.Stop()
		if err := exec.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
