package metrics

import (
	"math"
	"math/rand"
	"sort"
)

// Reservoir keeps a uniform random sample of bounded size over a stream of
// observations (Vitter's algorithm R). It is used to estimate latency
// percentiles without recording every data item, mirroring the paper's
// random-sampling approach to latency measurement.
type Reservoir struct {
	capacity int
	seen     int64
	samples  []float64
	seed     int64
	rng      *rand.Rand
}

// NewReservoir creates a reservoir holding at most capacity samples,
// whose replacement draws come from rand.NewSource(seed). It allocates
// nothing up front: the samples grow by append until the reservoir is
// full, and the source is seeded at the first replacement draw, so a
// reservoir that is never used costs its header and the sample stream
// is the one an eagerly seeded source gives.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	return &Reservoir{capacity: capacity, seed: seed}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.samples) < r.capacity {
		r.samples = append(r.samples, x)
		return
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	if idx := r.rng.Int63n(r.seen); idx < int64(r.capacity) {
		r.samples[idx] = x
	}
}

// Percentile estimates the q-th percentile (q in [0, 1]) from the
// sample with nearest-rank semantics: the ⌈q·n⌉-th smallest held
// sample. It returns 0 when the reservoir is empty.
//
// Earlier versions interpolated between order statistics, which biases
// tail quantiles low on partially-filled reservoirs: with n samples the
// interpolated position q·(n−1) sits below the nearest-rank index for
// every q near 1, so p95/p99 reported a value strictly smaller than any
// sample at or above the true rank. Nearest-rank never underestimates
// the boundary order statistic.
func (r *Reservoir) Percentile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(r.samples))
	copy(sorted, r.samples)
	sort.Float64s(sorted)
	return nearestRankOfSorted(sorted, q)
}

// Samples returns a copy of the currently held samples.
func (r *Reservoir) Samples() []float64 {
	out := make([]float64, len(r.samples))
	copy(out, r.samples)
	return out
}

// nearestRankOfSorted returns the ⌈q·n⌉-th element of an ascending
// slice (clamped to [1, n]).
func nearestRankOfSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := math.Ceil(q * float64(len(sorted)))
	if pos < 1 {
		pos = 1
	}
	idx := int(pos) - 1
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
