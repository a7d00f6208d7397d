package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// allocEngineRun executes one src(1)→work(2)→sink(1) run with adaptive
// batching over rotation wiring — the scaler's steady-state configuration
// — and returns the number of records delivered at the sink. The source
// bursts 64 records per scheduled emission so the data plane, not the
// pacing timer, dominates the allocation profile.
func allocEngineRun(t *testing.T) float64 {
	t.Helper()
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 0.5},
			Emit: func(ctx *Context) {
				n := emitted.Add(64)
				for i := 0; i < 64; i++ {
					ctx.Emit(0, Record{Key: uint64(n) + uint64(i)})
				}
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingAdaptive).
		SetEdgeBatching("work", "sink", BatchingAdaptive)
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec.AddConstraint(&model.Constraint{
		Name: "alloc", Sequence: seq,
		Bound: 20 * time.Millisecond, Window: 10 * time.Second,
	})
	exec, err := New(Config{
		Seed:                1,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  250 * time.Millisecond,
		// Full data-plane instrumentation stays on: the scrape and the
		// ring, flush and pool counters must not put allocations (or any other
		// cost) on the per-record path — the budget below covers them.
		Telemetry: obs.NewTelemetry(64),
		Recorder:  obs.NewRecorder(64),
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("alloc run did not finish: %v", err)
	}
	if received.Load() == 0 {
		t.Fatal("no records delivered")
	}
	return float64(received.Load())
}

// TestEngineSteadyStateAllocsPerRecord pins the pooled data plane: with
// batch slices recycled through the execution's free list, the shipment
// scratch reused, and the amortized task clock, a whole run — setup,
// goroutine stacks and QoS-interval bookkeeping included — must stay
// well under one allocation per delivered record. The pre-pooling
// engine sat near 1.6 allocs/record on this configuration (6 with
// instant batching); the pooled plane measures ~0.02. The 0.5 budget
// guards against per-record allocations creeping back in (closures,
// boxing, buffer reallocation) while tolerating control-plane noise.
func TestEngineSteadyStateAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock engine runs")
	}
	var records float64
	allocs := testing.AllocsPerRun(3, func() {
		records = allocEngineRun(t)
	})
	if perRecord := allocs / records; perRecord > 0.5 {
		t.Errorf("steady-state allocations: %.3f allocs/record (%.0f allocs / %.0f records), want ≤ 0.5",
			perRecord, allocs, records)
	}
}
