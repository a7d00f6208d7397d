package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveStats computes mean and unbiased variance in two passes.
func naiveStats(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func TestWelfordMatchesNaive(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, variance := naiveStats(xs)
		return w.Count() == int64(len(xs)) &&
			almostEqual(w.Mean(), mean, 1e-9) &&
			almostEqual(w.Variance(), variance, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CV() != 0 || w.Count() != 0 {
		t.Error("zero-value Welford must report zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordCV(t *testing.T) {
	var w Welford
	// Deterministic samples with mean 10 and known variance 4 (population
	// variance of {8, 12} with Bessel correction: 8).
	w.Add(8)
	w.Add(12)
	wantStd := math.Sqrt(8.0)
	if !almostEqual(w.CV(), wantStd/10, 1e-12) {
		t.Errorf("CV: got %v, want %v", w.CV(), wantStd/10)
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	prop := func(seedA, seedB int64, nA, nB uint8) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		var wa, wb, all Welford
		for i := 0; i < int(nA); i++ {
			x := rngA.NormFloat64()*3 + 7
			wa.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nB); i++ {
			x := rngB.NormFloat64()*5 - 2
			wb.Add(x)
			all.Add(x)
		}
		wa.Merge(wb)
		return wa.Count() == all.Count() &&
			almostEqual(wa.Mean(), all.Mean(), 1e-9) &&
			almostEqual(wa.Variance(), all.Variance(), 1e-7)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != a.Mean() || b.Count() != a.Count() {
		t.Error("merging into empty accumulator did not copy")
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(42)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

// TestWelfordAddNMatchesRepeatedAdd: AddN(x, n) is n calls of Add(x) to
// 1e-12 relative, n = 0 changes nothing, and n = 1 is Add bit for bit.
func TestWelfordAddNMatchesRepeatedAdd(t *testing.T) {
	relClose := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	rng := rand.New(rand.NewSource(14))
	var one, grouped, single Welford
	for step := 0; step < 400; step++ {
		// Service-time-sized values (tens of ns to ms, in seconds) in
		// groups of 0..64, as handleBatch produces them.
		x := math.Exp(rng.Float64()*12-17) * (1 + rng.Float64())
		n := int64(rng.Intn(65))
		before := grouped
		for i := int64(0); i < n; i++ {
			one.Add(x)
		}
		grouped.AddN(x, n)
		if n == 0 && grouped != before {
			t.Fatalf("step %d: AddN(x, 0) changed the accumulator", step)
		}
		if one.Count() != grouped.Count() {
			t.Fatalf("step %d: count %d vs %d", step, one.Count(), grouped.Count())
		}
		if !relClose(one.Mean(), grouped.Mean()) || !relClose(one.Variance(), grouped.Variance()) {
			t.Fatalf("step %d: Add ×%d (mean %v var %v) vs AddN (mean %v var %v)",
				step, n, one.Mean(), one.Variance(), grouped.Mean(), grouped.Variance())
		}
		ref := single
		ref.Add(x)
		single.AddN(x, 1)
		if single != ref {
			t.Fatalf("step %d: AddN(x, 1) = %+v, Add(x) = %+v", step, single, ref)
		}
	}
	grouped.AddN(1, -3)
	if grouped.Count() != one.Count() {
		t.Error("negative n must be a no-op")
	}
}
