package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// relErr is |est−exact|/exact, with exact 0 treated as requiring est 0.
func relErr(est, exact float64) float64 {
	if exact == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-exact) / exact
}

var testQuantiles = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// TestSketchRelativeErrorBound checks the declared guarantee on three
// distribution shapes: every quantile estimate must be within α of the
// exact nearest-rank value.
func TestSketchRelativeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() float64{
		"uniform":   func() float64 { return 0.001 + 0.999*rng.Float64() },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()*1.5 - 5) },
		"bimodal": func() float64 {
			if rng.Float64() < 0.9 {
				return 0.002 + 0.001*rng.NormFloat64()
			}
			return 0.5 + 0.1*rng.NormFloat64()
		},
	}
	for name, draw := range distributions {
		s := NewDefault()
		samples := make([]float64, 0, 50000)
		for i := 0; i < 50000; i++ {
			v := math.Abs(draw())
			samples = append(samples, v)
			s.Add(v)
		}
		if got, want := s.Count(), uint64(len(samples)); got != want {
			t.Fatalf("%s: count %d, want %d", name, got, want)
		}
		for _, q := range testQuantiles {
			exact := NearestRankOf(samples, q)
			est := s.Quantile(q)
			if re := relErr(est, exact); re > s.Alpha()+1e-12 {
				t.Errorf("%s q=%g: sketch %.6g vs exact %.6g, rel err %.4f > α=%.2f",
					name, q, est, exact, re, s.Alpha())
			}
		}
	}
}

// TestSketchMergeAssociativeCommutative is a property test: random
// partitions of a stream over several workers, merged in random
// groupings and orders, must produce identical quantiles and identical
// serialized bytes.
func TestSketchMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nWorkers := 2 + rng.Intn(6)
		workers := make([]*Sketch, nWorkers)
		for i := range workers {
			workers[i] = NewDefault()
		}
		ref := NewDefault()
		for i := 0; i < 5000; i++ {
			v := math.Exp(rng.NormFloat64() - 4)
			workers[rng.Intn(nWorkers)].Add(v)
			ref.Add(v)
		}

		// Left fold in shuffled order.
		order := rng.Perm(nWorkers)
		a := NewDefault()
		for _, i := range order {
			a.Merge(workers[i])
		}
		// Pairwise tree reduction in a different shuffled order.
		pool := make([]*Sketch, 0, nWorkers)
		for _, i := range rng.Perm(nWorkers) {
			pool = append(pool, workers[i].Clone())
		}
		for len(pool) > 1 {
			pool[0].Merge(pool[1])
			pool = append(pool[:1], pool[2:]...)
		}
		b := pool[0]

		ba, _ := a.MarshalBinary()
		bb, _ := b.MarshalBinary()
		br, _ := ref.MarshalBinary()
		if !bytes.Equal(ba, bb) {
			t.Fatalf("trial %d: fold vs tree merge bytes differ", trial)
		}
		if !bytes.Equal(ba, br) {
			t.Fatalf("trial %d: merged bytes differ from single-sketch ingest", trial)
		}
		for _, q := range testQuantiles {
			if a.Quantile(q) != ref.Quantile(q) {
				t.Fatalf("trial %d q=%g: merged %.9g != direct %.9g",
					trial, q, a.Quantile(q), ref.Quantile(q))
			}
		}
		if a.Count() != ref.Count() {
			t.Fatalf("trial %d: merged count %d != %d", trial, a.Count(), ref.Count())
		}
	}
}

// TestSketchMultiWorkerPoolingByteIdentical mirrors the multi-seed
// experiment pooling contract: the same per-worker sketches merged in
// every permutation of completion order serialize to identical bytes.
func TestSketchMultiWorkerPoolingByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	workers := make([]*Sketch, 4)
	for i := range workers {
		workers[i] = NewDefault()
		for j := 0; j < 2000; j++ {
			workers[i].Add(math.Exp(rng.NormFloat64()*2 - 6))
		}
	}
	var want []byte
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, p := range perms {
		m := NewDefault()
		for _, i := range p {
			m.Merge(workers[i])
		}
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("merge order %v produced different bytes", p)
		}
	}
}

// TestSketchZeroAndEdgeCases pins behavior at the boundaries: zero and
// sub-floor values, empty and nil sketches, q outside [0, 1].
func TestSketchZeroAndEdgeCases(t *testing.T) {
	var nilS *Sketch
	nilS.Add(1)
	if nilS.Quantile(0.5) != 0 || nilS.Count() != 0 || nilS.Mean() != 0 {
		t.Error("nil sketch must be a no-op")
	}
	s := NewDefault()
	if s.Quantile(0.99) != 0 {
		t.Error("empty sketch quantile must be 0")
	}
	s.Add(0)
	s.Add(-1)
	s.Add(math.NaN())
	if s.Count() != 2 {
		t.Fatalf("count %d after 0, -1, NaN; want 2 (NaN dropped)", s.Count())
	}
	if s.Quantile(0.5) != 0 {
		t.Error("all-zero stream median must be 0")
	}
	s.Add(10)
	if got := s.Quantile(1); relErr(got, 10) > s.Alpha() {
		t.Errorf("max estimate %.4f not within α of 10", got)
	}
	if got := s.Quantile(-0.5); got != 0 {
		t.Errorf("q<0 must clamp to minimum, got %g", got)
	}
	if got := s.Quantile(2); relErr(got, 10) > s.Alpha() {
		t.Errorf("q>1 must clamp to maximum, got %g", got)
	}
}

// TestSketchCountAbove checks SLO-style bad-event counting against a
// stream with a known split.
func TestSketchCountAbove(t *testing.T) {
	s := NewDefault()
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i) / 1000) // 0.001 .. 1.000
	}
	got := s.CountAbove(0.5)
	if got < 480 || got > 520 {
		t.Errorf("CountAbove(0.5) = %d, want ≈500 (±α slack)", got)
	}
	if s.CountAbove(2) != 0 {
		t.Error("CountAbove above max must be 0")
	}
	if got := s.CountAbove(0); got != 1000 {
		t.Errorf("CountAbove(0) = %d, want 1000", got)
	}
}

// TestSketchMeanSumDeterministic checks the mean estimate against the
// true mean (within α) and that Reset keeps capacity but clears state.
func TestSketchMeanSumDeterministic(t *testing.T) {
	s := NewDefault()
	sum := 0.0
	for i := 1; i <= 10000; i++ {
		v := float64(i) * 1e-4
		s.Add(v)
		sum += v
	}
	mean := sum / 10000
	if re := relErr(s.Mean(), mean); re > s.Alpha() {
		t.Errorf("mean estimate %.6f vs true %.6f, rel err %.4f", s.Mean(), mean, re)
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Sum() != 0 {
		t.Error("Reset must clear all state")
	}
	s.Add(5)
	if re := relErr(s.Quantile(1), 5); re > s.Alpha() {
		t.Error("sketch unusable after Reset")
	}
}

// TestSketchAddSteadyStateAllocFree verifies the record path allocates
// nothing once the bucket store covers the observed range.
func TestSketchAddSteadyStateAllocFree(t *testing.T) {
	s := NewDefault()
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()*2 - 5)
	}
	for _, v := range vals {
		s.Add(v) // warm the store
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			s.Add(v)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Add allocated %.2f per run, want 0", allocs)
	}
}

// TestSketchMergeMixedAlpha documents the cross-α fallback: counts are
// preserved and quantiles stay within the compounded bound.
func TestSketchMergeMixedAlpha(t *testing.T) {
	a := New(0.01)
	b := New(0.02)
	for i := 1; i <= 1000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count %d, want 2000", a.Count())
	}
	exact := 500.0 // median of the combined stream
	if re := relErr(a.Quantile(0.5), exact); re > 0.04 {
		t.Errorf("cross-α merged median %.2f, rel err %.4f > compounded bound", a.Quantile(0.5), re)
	}
}

// TestNearestRankOf pins the exact reference definition.
func TestNearestRankOf(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.95, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := NearestRankOf(samples, c.q); got != c.want {
			t.Errorf("NearestRankOf(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if NearestRankOf(nil, 0.5) != 0 {
		t.Error("empty input must return 0")
	}
	// Input must not be mutated (sorted copy).
	if samples[0] != 5 {
		t.Error("NearestRankOf mutated its input")
	}
}

// TestSketchQuantileBoundaries pins the nearest-rank edges the tail
// coefficient divides by: q=0, q=1, a single sample, an empty sketch,
// and a NaN quantile — each checked against the exact NearestRankOf
// reference. Converting a NaN rank to an integer is platform-dependent
// in Go, so before the explicit fast path a NaN q returned the maximum
// on amd64 and the minimum on arm64.
func TestSketchQuantileBoundaries(t *testing.T) {
	samples := []float64{0.4, 0.1, 0.3, 0.2, 0.5}
	s := NewDefault()
	for _, v := range samples {
		s.Add(v)
	}
	for _, q := range []float64{0, -1, 1, 2, math.NaN()} {
		exact := NearestRankOf(samples, q)
		if got := s.Quantile(q); relErr(got, exact) > s.Alpha() {
			t.Errorf("Quantile(%v) = %g, want within α of exact nearest-rank %g", q, got, exact)
		}
	}
	if got := NearestRankOf(samples, math.NaN()); got != 0.1 {
		t.Errorf("NearestRankOf(NaN) = %g, want minimum 0.1", got)
	}

	one := NewDefault()
	one.Add(0.25)
	for _, q := range []float64{0, 0.5, 0.99, 1, math.NaN()} {
		if got := one.Quantile(q); relErr(got, 0.25) > one.Alpha() {
			t.Errorf("single-sample Quantile(%v) = %g, want ≈0.25 at every q", q, got)
		}
		if got := NearestRankOf([]float64{0.25}, q); got != 0.25 {
			t.Errorf("single-sample NearestRankOf(%v) = %g, want 0.25", q, got)
		}
	}

	empty := NewDefault()
	for _, q := range []float64{0, 0.5, 1, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %g, want 0", q, got)
		}
	}
}

// benchValues is 4096 seeded samples log-uniform over [lo, hi].
func benchValues(lo, hi float64) []float64 {
	rng := rand.New(rand.NewSource(3))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	return vs
}

var benchRanges = []struct {
	name   string
	lo, hi float64
}{
	{"narrow", 0.005, 0.015},  // ±50 % around 10 ms: a steady hop latency
	{"sixdecades", 1e-6, 1.0}, // every mantissa cell, thousands of buckets
}

// BenchmarkSketchAdd is the record path of one sketch: bucket lookup and
// counter increment, the window warm, nothing allocated.
func BenchmarkSketchAdd(b *testing.B) {
	for _, alpha := range []float64{0.01, 0.001} {
		for _, r := range benchRanges {
			b.Run(fmt.Sprintf("alpha=%g/%s", alpha, r.name), func(b *testing.B) {
				s, vs := New(alpha), benchValues(r.lo, r.hi)
				for _, v := range vs {
					s.Add(v)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Add(vs[i&4095])
				}
			})
		}
	}
}

// BenchmarkSketchAddAll is the probe's shape: one latency into an
// interval, a run and a window sketch of one accuracy.
func BenchmarkSketchAddAll(b *testing.B) {
	for _, r := range benchRanges {
		b.Run(r.name, func(b *testing.B) {
			s1, s2, s3, vs := New(0.001), New(0.001), New(0.001), benchValues(r.lo, r.hi)
			for _, v := range vs {
				AddAll(v, s1, s2, s3)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddAll(vs[i&4095], s1, s2, s3)
			}
		})
	}
}
