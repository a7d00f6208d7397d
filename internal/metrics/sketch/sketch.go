// Package sketch implements a DDSketch-style log-bucketed quantile
// sketch with a fixed relative-error guarantee: any quantile estimate
// is within a configurable relative accuracy α (default 1%) of the
// true rank-α quantile of the observed stream.
//
// Observations are mapped to geometric buckets i = ⌈log_γ v⌉ with
// γ = (1+α)/(1−α); each bucket stores only an integer count, so the
// sketch state is pure integers and Merge is per-bucket addition —
// exactly associative and commutative. Like the Welford merge used for
// multi-seed pooling, merging per-worker sketches yields byte-identical
// results regardless of worker completion order.
//
// The record path is allocation-free in steady state: the dense bucket
// store grows amortized (and only while the observed value range is
// still expanding), so sketches on the engine/sim hot paths stay within
// the repository's allocs-per-record guards. It also takes no logarithm:
// index reads the bucket off the sample's exponent and mantissa bits and
// keeps that answer only where it provably equals the defining formula,
// reference, which decides the samples that land too close to a bucket
// edge. Non-finite samples (NaN, ±Inf) are dropped.
//
// A Sketch is not safe for concurrent use; callers synchronize, as with
// metrics.Welford.
package sketch

import (
	"encoding/binary"
	"math"
	"sort"
)

// DefaultAlpha is the default relative accuracy: quantile estimates are
// within ±1% of the true value.
const DefaultAlpha = 0.01

// minIndexedValue is the smallest observation mapped to a log bucket;
// anything below (including zero and negatives, which cannot occur for
// latencies but are clamped defensively) lands in the zero bucket and
// is reported as 0. At 1 ns it is far below any latency this system
// measures.
const minIndexedValue = 1e-9

// Sketch is a mergeable quantile sketch. The zero value is not usable;
// use New or NewDefault.
type Sketch struct {
	alpha       float64
	gamma       float64
	invLogGamma float64 // 1 / ln γ, cached for the record path
	perOctave   float64 // buckets per doubling of v: ln 2 / ln γ
	guard       float64 // index trusts its estimate this far from a bucket edge

	zero   uint64   // observations in [0, minIndexedValue)
	count  uint64   // total observations, including the zero bucket
	offset int      // bucket index of store[0]
	store  []uint64 // dense bucket counts: the window of buckets offset..offset+len-1
	// lo..hi are the lowest and highest bucket with a count (lo > hi when
	// there is none): readers, Merge and Reset touch only that span of
	// the window, which Reset keeps.
	lo, hi int
}

// New returns a sketch with relative accuracy alpha (0 < alpha < 1);
// out-of-range values fall back to DefaultAlpha.
func New(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = DefaultAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	invLogGamma := 1 / math.Log(gamma)
	perOctave := math.Ln2 * invLogGamma
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: invLogGamma,
		perOctave:   perOctave,
		guard:       log2Err*perOctave + 1e-6,
		lo:          math.MaxInt,
		hi:          math.MinInt,
	}
}

// NewDefault returns a sketch with DefaultAlpha relative accuracy.
func NewDefault() *Sketch { return New(DefaultAlpha) }

// Alpha returns the sketch's relative accuracy (0 on nil).
func (s *Sketch) Alpha() float64 {
	if s == nil {
		return 0
	}
	return s.alpha
}

// Count returns the number of observations recorded (0 on nil).
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Add records one observation. Non-finite values (NaN, ±Inf) are dropped;
// values below the indexable floor (including non-positive values) count
// in the zero bucket.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN records n identical observations, under Add's rules.
func (s *Sketch) AddN(v float64, n uint64) {
	if s == nil || n == 0 || !finite(v) {
		return
	}
	s.count += n
	if v < minIndexedValue {
		s.zero += n
		return
	}
	s.bump(s.index(v), n)
}

// AddAll records v once in each sketch, under Add's rules. Sketches of the
// first one's α — the usual case: one stream feeding an interval, a run
// and a window sketch — share one bucket lookup, which leaves each of them
// a counter increment.
func AddAll(v float64, sketches ...*Sketch) {
	if len(sketches) == 0 || !finite(v) {
		return
	}
	first, i := sketches[0], 0
	if v >= minIndexedValue {
		i = first.index(v)
	}
	for _, s := range sketches {
		switch {
		case s.alpha != first.alpha:
			s.AddN(v, 1)
		case v < minIndexedValue:
			s.count++
			s.zero++
		default:
			s.count++
			s.bump(i, 1)
		}
	}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// reference maps a value ≥ minIndexedValue to its bucket: the unique i
// with γ^(i−1) < v ≤ γ^i. This expression is the definition of a bucket.
func (s *Sketch) reference(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLogGamma))
}

// log2Cells holds, per 1/32 of the mantissa range [1, 2), the quadratic
// c0 + c1·m + c2·m² through log₂ m at the cell's three Chebyshev nodes
// (768 bytes). log2Err bounds log2Mantissa's error with slack: the
// quadratic stays within 95 % of it (TestLog2ApproxErrorBound; 4.43e-7
// measured), and the rest covers the roundings of index and of reference,
// a few ulp of |y| ≤ 1075·perOctave each.
var log2Cells = func() (cells [32][3]float64) {
	for i := range cells {
		mid := 1 + (float64(i)+0.5)/32
		x0, x1, x2 := mid-math.Sqrt(3)/128, mid, mid+math.Sqrt(3)/128
		d01 := (math.Log2(x1) - math.Log2(x0)) / (x1 - x0)
		c2 := ((math.Log2(x2)-math.Log2(x1))/(x2-x1) - d01) / (x2 - x0)
		cells[i] = [3]float64{math.Log2(x0) - d01*x0 + c2*x0*x1, d01 - c2*(x0+x1), c2}
	}
	return cells
}()

const log2Err = 5e-7

// log2Mantissa estimates log₂ m for the mantissa m in [1, 2) of the float
// with bits b.
func log2Mantissa(b uint64) float64 {
	c := &log2Cells[b>>47&31]
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	return c[0] + m*(c[1]+m*c[2])
}

// index is reference without the logarithm. With v = m·2^e it estimates
// y = log_γ v as (e + log₂ m)·perOctave to within guard of what reference
// computes, so when y lies farther than guard from an integer the two
// ceilings are the same integer; nearer than that (about 0.03 % of
// samples at α = 0.001), and for anything not positive, normal and
// finite, reference answers.
func (s *Sketch) index(v float64) int {
	b := math.Float64bits(v)
	if e := b >> 52; e-1 < 0x7fe {
		y := (float64(int(e)-1023) + log2Mantissa(b)) * s.perOctave
		f := math.Floor(y)
		if d := y - f; d > s.guard && d < 1-s.guard {
			return int(f) + 1
		}
	}
	return s.reference(v)
}

// value returns the representative value of bucket i: the point
// 2γ^i/(γ+1), whose relative distance to every value in the bucket is
// at most α, clamped to the largest finite float.
func (s *Sketch) value(i int) float64 {
	return min(2*math.Pow(s.gamma, float64(i))/(s.gamma+1), math.MaxFloat64)
}

// bump adds n > 0 to bucket i.
func (s *Sketch) bump(i int, n uint64) {
	if i < s.offset || i >= s.offset+len(s.store) {
		s.cover(i, i)
	}
	s.store[i-s.offset] += n
	if i < s.lo {
		s.lo = i
	}
	if i > s.hi {
		s.hi = i
	}
}

// cover makes the window span buckets lo..hi, keeping what it holds.
// Growth doubles capacity, and Reset keeps the window, so recording is
// allocation- and shift-free once the observed value range stabilizes.
func (s *Sketch) cover(lo, hi int) {
	if len(s.store) == 0 {
		need := hi - lo + 1
		s.store, s.offset = make([]uint64, need, nextCap(need)), lo
		return
	}
	if lo < s.offset {
		grow := s.offset - lo
		if grow <= cap(s.store)-len(s.store) {
			s.store = s.store[:len(s.store)+grow]
			copy(s.store[grow:], s.store[:len(s.store)-grow])
			clear(s.store[:grow])
		} else {
			ns := make([]uint64, len(s.store)+grow, nextCap(len(s.store)+grow))
			copy(ns[grow:], s.store)
			s.store = ns
		}
		s.offset = lo
	}
	if need := hi - s.offset + 1; need > len(s.store) {
		if need <= cap(s.store) {
			clear(s.store[len(s.store):need])
			s.store = s.store[:need]
		} else {
			ns := make([]uint64, need, nextCap(need))
			copy(ns, s.store)
			s.store = ns
		}
	}
}

// nextCap doubles from 32 up to the required capacity, stopping short of
// integer overflow.
func nextCap(need int) int {
	c := 32
	for c < need && c <= math.MaxInt/2 {
		c *= 2
	}
	return max(c, need)
}

// Quantile estimates the q-th quantile (q in [0, 1]) with nearest-rank
// semantics: the returned value is within relative accuracy α of the
// ⌈q·n⌉-th smallest observation. Returns 0 when empty or nil.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	rank := nearestRank(q, s.count)
	if rank <= s.zero {
		return 0
	}
	cum := s.zero
	buckets, first := s.trimmed()
	for j, c := range buckets {
		cum += c
		if cum >= rank {
			return s.value(first + j)
		}
	}
	// Unreachable when counts are consistent; fall back to the top
	// bucket.
	return s.value(s.hi)
}

// CountAbove returns the number of observations recorded in buckets
// whose representative value exceeds x — within the sketch's accuracy,
// the count of observations greater than x. Used for SLO bad-event
// accounting.
func (s *Sketch) CountAbove(x float64) uint64 {
	if s == nil || s.count == 0 {
		return 0
	}
	var n uint64
	buckets, first := s.trimmed()
	for j := len(buckets) - 1; j >= 0; j-- {
		if s.value(first+j) <= x {
			break
		}
		n += buckets[j]
	}
	return n
}

// Sum returns the deterministic estimated sum of all observations:
// Σ countᵢ·valueᵢ over buckets in fixed index order, so the result does
// not depend on ingest or merge order.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	sum := 0.0
	buckets, first := s.trimmed()
	for j, c := range buckets {
		if c > 0 {
			sum += float64(c) * s.value(first+j)
		}
	}
	return sum
}

// Mean returns the estimated mean observation (0 when empty).
func (s *Sketch) Mean() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.Sum() / float64(s.count)
}

// Merge folds o into s: per-bucket integer addition, so the operation
// is associative, commutative and — for equal-α sketches — yields
// byte-identical state regardless of merge order. Sketches with a
// different α are folded by re-adding their bucket representative
// values, which preserves determinism but compounds the error bounds.
// A nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil || o == nil || o.count == 0 {
		return
	}
	buckets, first := o.trimmed()
	if o.alpha != s.alpha {
		s.count += o.zero
		s.zero += o.zero
		for j, c := range buckets {
			if c > 0 {
				s.count += c
				s.bump(s.index(o.value(first+j)), c)
			}
		}
		return
	}
	s.count += o.count
	s.zero += o.zero
	if len(buckets) > 0 {
		s.cover(o.lo, o.hi)
		dst := s.store[first-s.offset:]
		for j, c := range buckets {
			dst[j] += c
		}
		s.lo, s.hi = min(s.lo, o.lo), max(s.hi, o.hi)
	}
}

// Clone returns an independent copy of the sketch (nil on nil).
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	c.store = append([]uint64(nil), s.store...)
	return &c
}

// Reset discards all observations but keeps the bucket window — the span
// of indices the store covers, now all zero — so a sketch reused for the
// next interval of the same stream neither allocates nor shifts. No
// result depends on the window: readers see the occupied span only.
func (s *Sketch) Reset() {
	if s == nil {
		return
	}
	s.zero = 0
	s.count = 0
	buckets, _ := s.trimmed()
	clear(buckets)
	s.lo, s.hi = math.MaxInt, math.MinInt
}

// trimmed returns the buckets lo..hi — the window without its leading and
// trailing empty buckets, so equal contents read and serialize identically
// no matter how the window grew — and the index of the first.
func (s *Sketch) trimmed() (buckets []uint64, firstIndex int) {
	if s.lo > s.hi {
		return nil, 0
	}
	return s.store[s.lo-s.offset : s.hi-s.offset+1], s.lo
}

// MarshalBinary serializes the sketch deterministically: two sketches
// holding the same observations (in any order, merged in any grouping)
// produce identical bytes. Layout: α bits, zero count, total count,
// first bucket index, bucket count, then the bucket counts.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	if s == nil {
		return nil, nil
	}
	buckets, first := s.trimmed()
	buf := make([]byte, 0, 8*5+8*len(buckets))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.BigEndian.AppendUint64(buf, s.zero)
	buf = binary.BigEndian.AppendUint64(buf, s.count)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(first)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(buckets)))
	for _, c := range buckets {
		buf = binary.BigEndian.AppendUint64(buf, c)
	}
	return buf, nil
}

// NearestRankOf computes the exact q-th quantile of samples with
// nearest-rank semantics — the ⌈q·n⌉-th smallest element — without
// mutating the input. This is the ground-truth definition the sketch's
// relative-error bound is stated against.
func NearestRankOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return sorted[nearestRank(q, uint64(len(sorted)))-1]
}

// nearestRank maps a quantile to its 1-based nearest rank ⌈q·n⌉ in
// [1, n]. The edges are handled explicitly rather than through float
// conversion: q ≤ 0 and NaN pin to the minimum (rank 1), q ≥ 1 to the
// maximum (rank n). Converting ⌈NaN⌉ or an out-of-range product to an
// integer is platform-dependent in Go, which previously made Quantile
// return the max on amd64 and the min on arm64 for a NaN q.
func nearestRank(q float64, n uint64) uint64 {
	switch {
	case math.IsNaN(q) || q <= 0:
		return 1
	case q >= 1:
		return n
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}
