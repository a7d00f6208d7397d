package probe

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestProbeFulfillmentAccounting(t *testing.T) {
	ps := NewProbeSet()
	p := ps.Probe("c")
	p.BoundSeconds = 0.020

	// Interval 1: mean below the bound.
	p.Record(0.010)
	p.Record(0.014)
	p.AdjSnapshot()
	// Interval 2: mean above the bound.
	p.Record(0.030)
	p.Record(0.050)
	p.AdjSnapshot()
	// Interval 3: empty — must not count.
	p.AdjSnapshot()
	// Interval 4: exactly at the bound counts as fulfilled.
	p.Record(0.020)
	p.AdjSnapshot()

	frac, n := p.Fulfillment()
	if n != 3 {
		t.Fatalf("intervals: got %d, want 3 (empty intervals don't count)", n)
	}
	if math.Abs(frac-2.0/3.0) > 1e-12 {
		t.Errorf("fulfillment: got %v, want 2/3", frac)
	}
}

func TestProbeNoBoundAlwaysFulfilled(t *testing.T) {
	p := NewProbeSet().Probe("x")
	p.Record(123)
	p.AdjSnapshot()
	frac, n := p.Fulfillment()
	if n != 1 || frac != 1 {
		t.Errorf("unbounded probe: frac=%v n=%d, want 1/1", frac, n)
	}
}

func TestProbeRecSnapshotResets(t *testing.T) {
	p := NewProbeSet().Probe("x")
	for i := 1; i <= 100; i++ {
		p.Record(float64(i) / 1000)
	}
	count, mean, p95 := p.RecSnapshot()
	if count != 100 {
		t.Fatalf("count: got %d", count)
	}
	if math.Abs(mean-0.0505) > 1e-9 {
		t.Errorf("mean: got %v, want 0.0505", mean)
	}
	if p95 < 0.090 || p95 > 0.100 {
		t.Errorf("p95: got %v, want ≈0.095", p95)
	}
	if c, _, _ := p.RecSnapshot(); c != 0 {
		t.Error("RecSnapshot did not reset")
	}
	// Totals survive record snapshots.
	if p.TotalCount() != 100 {
		t.Errorf("TotalCount: got %d, want 100", p.TotalCount())
	}
	if p.TotalMean() == 0 || p.TotalP95() == 0 {
		t.Error("totals lost after snapshot")
	}
}

func TestProbeIgnoresNegative(t *testing.T) {
	p := NewProbeSet().Probe("x")
	p.Record(-1)
	if p.TotalCount() != 0 {
		t.Error("negative latency recorded")
	}
}

func TestProbeSetNamesSortedAndStable(t *testing.T) {
	ps := NewProbeSet()
	ps.Probe("zeta")
	ps.Probe("alpha")
	same := ps.Probe("zeta")
	if same != ps.Probe("zeta") {
		t.Error("Probe not idempotent")
	}
	names := ps.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names: %v", names)
	}
	ps.SetBound("alpha", 0.5)
	if ps.Probe("alpha").BoundSeconds != 0.5 {
		t.Error("SetBound did not stick")
	}
}

func TestProbeConcurrentRecording(t *testing.T) {
	p := NewProbeSet().Probe("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Record(float64(seed+1) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if p.TotalCount() != 8000 {
		t.Errorf("TotalCount under concurrency: got %d, want 8000", p.TotalCount())
	}
}

// TestProbeSetProbeAllocation: creating a probe costs its header, its
// sketches and the set's map entry; the run-wide reservoir's 128 KiB of
// samples and its seeded source wait for the recorded latencies.
func TestProbeSetProbeAllocation(t *testing.T) {
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		ps := NewProbeSetSeeded(int64(i))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ps.Probe("e2e")
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("ProbeSet.Probe allocated %d B", best)
	if best >= 1024 {
		t.Errorf("ProbeSet.Probe allocated %d B, want < 1 KiB", best)
	}
}
