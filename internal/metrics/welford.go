// Package metrics provides the statistical primitives used by the QoS
// measurement plane: numerically stable running moments (Welford),
// reservoir sampling for percentile estimation, interval accumulators and
// rate meters. All values are plain float64s; the QoS layer decides units
// (seconds for latencies, items/second for rates).
package metrics

import "math"

// Mean accumulates count and mean only: Welford's mean recurrence without
// the second moment, for streams whose variance nobody reads. Fed the same
// samples in the same order, its mean equals Welford's bit for bit. The
// zero value is ready to use.
type Mean struct {
	n    int64
	mean float64
}

// Add incorporates one sample.
func (m *Mean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// AddN incorporates n samples that all equal x (see Welford.AddN).
func (m *Mean) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	m.n += n
	m.mean += (x - m.mean) * float64(n) / float64(m.n)
}

// Count returns the number of samples seen.
func (m *Mean) Count() int64 { return m.n }

// Mean returns the sample mean, or 0 with no samples.
func (m *Mean) Mean() float64 { return m.mean }

// Take returns count and mean and resets the accumulator.
func (m *Mean) Take() (count int64, mean float64) {
	count, mean = m.n, m.mean
	*m = Mean{}
	return count, mean
}

// Welford accumulates count, mean and variance of a stream of samples
// using Welford's numerically stable online algorithm. The zero value is
// ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN incorporates n samples that all equal x in O(1): the weighted
// form of Add (AddN(x, 1) performs the same arithmetic), for callers
// that measured n events as one span and account them as n equal
// shares. n <= 0 is a no-op.
func (w *Welford) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	w.n += n
	delta := x - w.mean
	w.mean += delta * float64(n) / float64(w.n)
	w.m2 += delta * (x - w.mean) * float64(n)
}

// Count returns the number of samples seen.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CV returns the coefficient of variation c_X = StdDev(X)/Mean(X)
// (Table I of the paper), or 0 when the mean is 0.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / math.Abs(w.mean)
}

// Reset clears all accumulated state.
func (w *Welford) Reset() { *w = Welford{} }

// Merge combines another accumulator into this one using the parallel
// variance formula (Chan et al.). It is used to merge partial QoS
// summaries into the global summary.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}
