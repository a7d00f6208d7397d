package sim

import (
	"testing"

	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// allocPipelineRun executes one src(1)→server(4)→sink(1) run and returns
// the number of items emitted. The workload is deterministic service over
// a constant schedule, so every invocation allocates identically.
func allocPipelineRun(t *testing.T, configure func(*Config)) float64 {
	t.Helper()
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 120}, false, 4,
		func(int) Behavior { return &testServer{mean: 0.010} })
	if configure != nil {
		configure(&cfg)
	}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted["src"] == 0 {
		t.Fatal("no items emitted")
	}
	return float64(res.Emitted["src"])
}

// allocsPerItem measures whole-run allocations per emitted item
// (including one-time setup, which the item count amortizes).
func allocsPerItem(t *testing.T, configure func(*Config)) float64 {
	t.Helper()
	var items float64
	allocs := testing.AllocsPerRun(3, func() {
		items = allocPipelineRun(t, configure)
	})
	return allocs / items
}

// TestSteadyStateAllocsPerItem pins the allocation-free hot path: with
// pooled batches queued as they arrive, typed events, per-task service
// slots and QoS history windows that shift in place, what is left is
// setup and per-row bookkeeping — 0.07 allocs/item amortized over this
// run's 24 000 items. The seed implementation sat near 19; this guards
// against closures, boxing or per-item maps creeping back in.
func TestSteadyStateAllocsPerItem(t *testing.T) {
	perItem := allocsPerItem(t, nil)
	t.Logf("%.4f allocs/item", perItem)
	if perItem > 0.15 {
		t.Errorf("steady-state allocations: %.3f allocs/item, want ≤ 0.15", perItem)
	}
}

// TestDisabledObsAddsNoAllocs verifies the zero-cost-when-disabled
// contract of the observability layer: attaching a tracer with sample
// rate 0 and a recorder must not add per-item allocations.
func TestDisabledObsAddsNoAllocs(t *testing.T) {
	base := allocsPerItem(t, nil)
	withObs := allocsPerItem(t, func(cfg *Config) {
		cfg.Tracer = obs.NewTracer(0)
		cfg.Recorder = obs.NewRecorder(0)
	})
	// Allow a fixed slack for the obs objects themselves (constructed
	// once per run); the per-item budget is zero.
	if withObs > base+0.01 {
		t.Errorf("disabled obs costs allocations: %.4f allocs/item with obs vs %.4f without", withObs, base)
	}
}

// TestObsDisabledTelemetryAddsNoAllocs extends the zero-cost contract to
// the telemetry plane: a nil *obs.Telemetry (the default) must cost
// nothing per item — the hook is one pointer comparison.
func TestObsDisabledTelemetryAddsNoAllocs(t *testing.T) {
	base := allocsPerItem(t, nil)
	withNil := allocsPerItem(t, func(cfg *Config) {
		var tel *obs.Telemetry
		cfg.Telemetry = tel
		cfg.Tracer = obs.NewTracer(0)
		cfg.Recorder = obs.NewRecorder(0)
	})
	if withNil > base+0.01 {
		t.Errorf("disabled telemetry costs allocations: %.4f allocs/item vs %.4f base", withNil, base)
	}
}

// TestObsEnabledTelemetryAllocsBounded keeps the enabled plane honest:
// per-item recording reuses pre-allocated rings and a scrape writes
// through series it resolved once, so what telemetry adds is its own
// construction, each series' first sight and the snapshots it keeps per
// adjustment interval — 0.04 allocs/item on this run's 24 000 items
// (0.19 while every scrape rebuilt label maps and series keys).
func TestObsEnabledTelemetryAllocsBounded(t *testing.T) {
	base := allocsPerItem(t, nil)
	withTel := allocsPerItem(t, func(cfg *Config) {
		cfg.Telemetry = obs.NewTelemetry(256)
	})
	if withTel > base+0.05 {
		t.Errorf("enabled telemetry allocates %.4f allocs/item over the %.4f base, want ≤ +0.05", withTel-base, base)
	}
}
