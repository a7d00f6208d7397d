package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// indexAlphas are the accuracies the index contract is checked at: from
// 3466 buckets per octave, where the guard band is widest, to 1.7.
var indexAlphas = []float64{0.0001, 0.001, 0.01, 0.05, 0.2}

// TestLog2ApproxErrorBound scans the mantissa range at 2²⁴ points (and the
// last float below 2) and holds log2Mantissa's error under 95 % of log2Err,
// what the guard band is built from; the rest is room for rounding. Between
// scanned points the error moves by less than 1e-11: its slope is below
// 2e-4 inside a cell.
func TestLog2ApproxErrorBound(t *testing.T) {
	if size := len(log2Cells) * len(log2Cells[0]) * 8; size > 2048 {
		t.Fatalf("log2Cells is %d bytes, want ≤ 2048", size)
	}
	worst, at := 0.0, 0.0
	check := func(m float64) {
		if e := math.Abs(log2Mantissa(math.Float64bits(m)) - math.Log2(m)); e > worst {
			worst, at = e, m
		}
	}
	for i := 0; i < 1<<24; i++ {
		check(1 + float64(i)/(1<<24))
	}
	check(math.Nextafter(2, 1))
	t.Logf("max |estimate − log₂ m| = %.3g at m = %v", worst, at)
	if worst > 0.95*log2Err {
		t.Fatalf("error %.3g at m = %v exceeds 95 %% of log2Err = %g", worst, at, log2Err)
	}
}

// TestIndexMatchesReference is the contract of index: it equals reference
// for every input. Checked on log-uniform values across 26 decades and,
// where a wrong answer would be, on every bucket edge of 24 001 buckets
// with its 40 float neighbours on each side.
func TestIndexMatchesReference(t *testing.T) {
	samples := 20_000_000
	if testing.Short() {
		samples = 500_000
	}
	lo, hi := math.Log(1e-9), math.Log(1e17)
	for _, alpha := range indexAlphas {
		s := New(alpha)
		check := func(v float64) {
			if got, want := s.index(v), s.reference(v); got != want {
				t.Fatalf("α=%g: index(%v) = %d, reference = %d", alpha, v, got, want)
			}
		}
		rng := rand.New(rand.NewSource(24))
		for i := 0; i < samples; i++ {
			check(math.Exp(lo + (hi-lo)*rng.Float64()))
		}
		logGamma := math.Log(s.gamma)
		for k := -12000; k <= 12000; k++ {
			edge := math.Exp(float64(k) * logGamma)
			if edge < minIndexedValue || math.IsInf(edge, 0) {
				continue
			}
			check(edge)
			for up, down, j := edge, edge, 0; j < 40; j++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
				check(up)
				check(down)
			}
		}
		// Equality alone would hold with reference deciding everything:
		// the band it decides, guard on each side of an edge, stays thin.
		if share := 2 * s.guard; alpha >= 0.001 && share > 0.001 {
			t.Errorf("α=%g: reference decides %.2g of samples, want ≤ 0.1%%", alpha, share)
		}
	}
}

// fillReference is Add with the bucket taken from the defining formula.
func fillReference(s *Sketch, v float64) {
	s.count++
	if v < minIndexedValue {
		s.zero++
		return
	}
	s.bump(s.reference(v), 1)
}

// TestSketchBytesUnchanged: a sketch filled through Add and one filled
// through AddAll serialize to the bytes of one filled bucket by bucket
// from the reference formula.
func TestSketchBytesUnchanged(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.001} {
		rng := rand.New(rand.NewSource(11))
		viaAdd, viaAddAll, twin, ref := New(alpha), New(alpha), New(alpha), New(alpha)
		for i := 0; i < 1_000_000; i++ {
			v := math.Exp(rng.NormFloat64()*2 - 6)
			viaAdd.Add(v)
			AddAll(v, viaAddAll, twin)
			fillReference(ref, v)
		}
		want, _ := ref.MarshalBinary()
		for name, s := range map[string]*Sketch{"Add": viaAdd, "AddAll": viaAddAll, "AddAll (second)": twin} {
			if got, _ := s.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("α=%g: sketch filled through %s differs from the reference fill", alpha, name)
			}
		}
	}
}

// TestSketchNonFiniteInputs: ±Inf is dropped like NaN on every entry
// point, and the largest finite sample neither reads back as +Inf nor
// stalls a merge into a sketch of another accuracy. Each step runs under
// a deadline: Add(+Inf) used to spin in nextCap forever.
func TestSketchNonFiniteInputs(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, other := New(0.01), New(0.01)
		s.Add(0.001)
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			s.Add(v)
			s.AddN(v, 3)
			AddAll(v, s, other)
		}
		if s.Count() != 1 || other.Count() != 0 {
			t.Errorf("non-finite samples were counted: %d and %d observations, want 1 and 0", s.Count(), other.Count())
		}
		if q := s.Quantile(1); relErr(q, 0.001) > 0.01 {
			t.Errorf("Quantile(1) = %v after dropped samples, want ≈ 0.001", q)
		}

		s.Add(math.MaxFloat64)
		if q := s.Quantile(1); math.IsInf(q, 0) || q < math.MaxFloat64*0.98 {
			t.Errorf("Quantile(1) = %v, want finite and within 1%% of MaxFloat64", q)
		}
		for _, alpha := range []float64{0.05, 0.001} { // coarser and finer than s
			into := New(alpha)
			into.Add(2)
			into.Merge(s)
			if into.Count() != 3 {
				t.Errorf("α=%g: merged count = %d, want 3", alpha, into.Count())
			}
			if q := into.Quantile(1); math.IsInf(q, 0) || q < math.MaxFloat64*0.9 {
				t.Errorf("α=%g: merged Quantile(1) = %v, want finite and near MaxFloat64", alpha, q)
			}
		}
		if got := nextCap(math.MaxInt); got != math.MaxInt {
			t.Errorf("nextCap(MaxInt) = %d, want MaxInt", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a non-finite or huge sample did not return within 20 s")
	}
}

// FuzzSketchIndex: for any float64 bit pattern — subnormal, negative, Inf
// and NaN included — index equals reference, and Add returns.
func FuzzSketchIndex(f *testing.F) {
	for sel, alpha := range indexAlphas {
		logGamma := math.Log(New(alpha).gamma)
		for _, k := range []int{-9000, -1, 0, 1, 2, 777, 12000} {
			edge := math.Exp(float64(k) * logGamma)
			for _, v := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				f.Add(math.Float64bits(v), uint8(sel))
			}
		}
	}
	f.Add(math.Float64bits(math.Inf(1)), uint8(1))
	f.Add(math.Float64bits(math.NaN()), uint8(2))
	f.Add(uint64(1), uint8(0)) // smallest subnormal
	f.Add(math.Float64bits(math.MaxFloat64), uint8(0))
	f.Fuzz(func(t *testing.T, bits uint64, alphaSel uint8) {
		alpha := indexAlphas[int(alphaSel)%len(indexAlphas)]
		v := math.Float64frombits(bits)
		s := New(alpha)
		if got, want := s.index(v), s.reference(v); got != want {
			t.Fatalf("α=%g: index(%v) = %d, reference = %d", alpha, v, got, want)
		}
		s.Add(1) // a second bucket far from v's is what made cover overflow
		s.Add(v)
		want := uint64(1)
		if finite(v) {
			want = 2
		}
		if s.Count() != want {
			t.Fatalf("α=%g: Count = %d after Add(1), Add(%v), want %d", alpha, s.Count(), v, want)
		}
	})
}
