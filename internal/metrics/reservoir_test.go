package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

func TestReservoirBelowCapacity(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 1; i <= 5; i++ {
		r.Add(float64(i))
	}
	if len(r.samples) != 5 || r.seen != 5 {
		t.Fatalf("held=%d seen=%d, want 5/5", len(r.samples), r.seen)
	}
	if got := r.Percentile(1); got != 5 {
		t.Errorf("max percentile: got %v, want 5", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("min percentile: got %v, want 1", got)
	}
}

func TestReservoirCapacityBound(t *testing.T) {
	r := NewReservoir(16, 2)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i))
	}
	if len(r.samples) != 16 {
		t.Errorf("held: got %d, want 16", len(r.samples))
	}
	if r.seen != 10000 {
		t.Errorf("seen: got %d, want 10000", r.seen)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Feed 0..9999; the sample mean must be close to the stream mean.
	r := NewReservoir(512, 3)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i))
	}
	streamMean, sum := 4999.5, 0.0
	for _, x := range r.samples {
		sum += x
	}
	if got := sum / float64(len(r.samples)); math.Abs(got-streamMean) > 700 {
		t.Errorf("sample mean %v too far from stream mean %v", got, streamMean)
	}
	// Median of the uniform stream is ~5000.
	if got := r.Percentile(0.5); math.Abs(got-5000) > 1200 {
		t.Errorf("sample median %v too far from 5000", got)
	}
}

// TestReservoirTailPercentileNearestRank is the regression test for the
// partially-filled tail bias: linear interpolation placed q·(n−1)
// below the nearest-rank index for q near 1, so p95/p99 of a small
// sample came out below every sample at or above the true rank (e.g.
// p95 of {1..5} interpolated to 4.8 instead of 5). Nearest-rank must
// return an actual held sample and never undershoot the boundary order
// statistic.
func TestReservoirTailPercentileNearestRank(t *testing.T) {
	r := NewReservoir(4096, 10)
	for i := 1; i <= 5; i++ {
		r.Add(float64(i))
	}
	if got := r.Percentile(0.95); got != 5 {
		t.Errorf("p95 of {1..5}: got %v, want 5 (nearest rank ⌈0.95·5⌉=5)", got)
	}
	if got := r.Percentile(0.99); got != 5 {
		t.Errorf("p99 of {1..5}: got %v, want 5", got)
	}
	if got := r.Percentile(0.8); got != 4 {
		t.Errorf("p80 of {1..5}: got %v, want 4 (rank ⌈0.8·5⌉=4)", got)
	}
	// A larger partially-filled reservoir: p99 of {1..100} is sample 99,
	// not an interpolated 98.01.
	r = NewReservoir(4096, 10)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if got := r.Percentile(0.99); got != 99 {
		t.Errorf("p99 of {1..100}: got %v, want 99", got)
	}
	// Every nearest-rank result is a sample actually held.
	held := map[float64]bool{}
	for _, s := range r.Samples() {
		held[s] = true
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if !held[r.Percentile(q)] {
			t.Errorf("Percentile(%v) = %v is not a held sample", q, r.Percentile(q))
		}
	}
}

// TestReservoirLazyMatchesEager: growing the samples by append and
// seeding the source at the first replacement draw retains exactly the
// samples, and so the percentiles, of a reservoir whose samples and
// source are allocated and seeded up front.
func TestReservoirLazyMatchesEager(t *testing.T) {
	const capacity, n = 16384, 100000
	for seed := int64(1); seed <= 5; seed++ {
		r := NewReservoir(capacity, seed)
		eager := make([]float64, 0, capacity)
		rng := rand.New(rand.NewSource(seed))
		in := rand.New(rand.NewSource(seed + 100))
		for i := int64(1); i <= n; i++ {
			x := in.ExpFloat64()
			r.Add(x)
			if len(eager) < capacity {
				eager = append(eager, x)
			} else if idx := rng.Int63n(i); idx < capacity {
				eager[idx] = x
			}
		}
		if !slices.Equal(r.Samples(), eager) {
			t.Fatalf("seed %d: lazily seeded reservoir retained other samples than the eager reference", seed)
		}
		sorted := slices.Clone(eager)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
			if got, want := r.Percentile(q), nearestRankOfSorted(sorted, q); got != want {
				t.Errorf("seed %d: Percentile(%v) = %v, eager reference %v", seed, q, got, want)
			}
		}
	}
}

// TestReservoirAllocatesOnFirstAdd: a new reservoir is its header; the
// samples come with the first Add.
func TestReservoirAllocatesOnFirstAdd(t *testing.T) {
	var r *Reservoir
	fresh := minAllocatedBytes(func() { r = NewReservoir(16384, 1) })
	// The header rounds up to its size class, at most twice its size.
	if header := uint64(unsafe.Sizeof(Reservoir{})); fresh > 2*header {
		t.Errorf("NewReservoir(16384, 1) allocated %d B, want only its %d B header", fresh, header)
	}
	if first := minAllocatedBytes(func() { NewReservoir(16384, 1).Add(1) }); first >= 16384*8 {
		t.Errorf("a reservoir holding one sample allocated %d B", first)
	}
	r.Add(1)
	if len(r.Samples()) != 1 {
		t.Fatal("first Add not retained")
	}
}

// minAllocatedBytes is the least heap volume f allocated over five calls.
func minAllocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(4, 4)
	if r.Percentile(0.5) != 0 {
		t.Error("empty reservoir must report zeros")
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	r := NewReservoir(0, 6)
	r.Add(7)
	if len(r.samples) != 1 {
		t.Errorf("capacity clamped to 1: held %d", len(r.samples))
	}
}

func TestPercentileOf(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{name: "empty", samples: nil, q: 0.5, want: 0},
		{name: "single", samples: []float64{3}, q: 0.95, want: 3},
		{name: "median interpolated", samples: []float64{1, 2, 3, 4}, q: 0.5, want: 2.5},
		{name: "p95 of 1..100", samples: seq(1, 100), q: 0.95, want: 95.05},
		{name: "unsorted input", samples: []float64{4, 1, 3, 2}, q: 0.5, want: 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := percentileOf(tt.samples, tt.q); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("percentileOf(%v, %v): got %v, want %v", tt.samples, tt.q, got, tt.want)
			}
		})
	}
}

func TestPercentileOfDoesNotMutate(t *testing.T) {
	samples := []float64{3, 1, 2}
	_ = percentileOf(samples, 0.5)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Error("percentileOf mutated its input")
	}
}

func seq(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

// percentileOf interpolates the q-th percentile of samples between
// order statistics, without mutating them: the estimator the reservoir
// used before nearest rank (TestReservoirTailPercentileNearestRank).
func percentileOf(samples []float64, q float64) float64 {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return percentileOfSorted(sorted, q)
}

// percentileOfSorted interpolates the q-th percentile of an ascending
// slice.
func percentileOfSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
