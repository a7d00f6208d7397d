package engine

import (
	"slices"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/workload"
)

// TestSourcePacingSubMillisecond: a source keeps a schedule whose
// emissions lie less than a millisecond apart. Under a runtime timer
// park the wait rounds up to ≈ 1.09 ms, so at 2000 and 4000 calls/s the
// Emit calls arrive in pairs or quads and the p90 gap between
// consecutive calls reads ≈ 1.1 ms at both rates. A thread sleep ends
// within the kernel's timer slack: ≈ 0.55 and ≈ 0.27 ms. The bounds
// leave room for the ±10 % jitter, the slack and a loaded host.
func TestSourcePacingSubMillisecond(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		bound time.Duration
	}{
		{2000, 750 * time.Microsecond},
		{4000, 400 * time.Microsecond},
	} {
		const length = 0.6 // seconds of schedule; the first 0.1 s is warm-up
		calls := make([]time.Time, 0, int(c.rate*length)+64)
		spec := NewJobSpec(buildChain(t, 1, 1, model.PatternRoundRobin)).
			SetSource("src", SourceSpec{
				Schedule: &workload.ConstantSchedule{RatePerSecond: c.rate, Length: length},
				Emit: func(ctx *Context) {
					if len(calls) < cap(calls) {
						calls = append(calls, time.Now())
					}
					ctx.Emit(0, Record{Key: uint64(len(calls))})
				},
			}).
			SetUDF("work", func(int) UDF { return &forwarder{} }).
			SetUDF("sink", func(int) UDF { return UDFFunc(func(*Context, Record) {}) }).
			SetEdgeBatching("src", "work", BatchingInstant).
			SetEdgeBatching("work", "sink", BatchingInstant)
		exec, err := New(Config{Seed: 5}).Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, exec, 20*time.Second)

		var gaps []time.Duration
		for i := 1; i < len(calls); i++ {
			if calls[i].Sub(exec.ex.start) >= 100*time.Millisecond {
				gaps = append(gaps, calls[i].Sub(calls[i-1]))
			}
		}
		if len(gaps) < int(c.rate*(length-0.1))/2 {
			t.Fatalf("%.0f calls/s: %d gaps after warm-up, want about %.0f", c.rate, len(gaps), c.rate*(length-0.1))
		}
		slices.Sort(gaps)
		p50, p90 := gaps[len(gaps)/2], gaps[len(gaps)*9/10]
		t.Logf("%.0f calls/s: gap p50 %v, p90 %v over %d gaps", c.rate, p50, p90, len(gaps))
		if p90 > c.bound {
			t.Errorf("%.0f calls/s: p90 gap between Emit calls %v, want ≤ %v", c.rate, p90, c.bound)
		}
	}
}
