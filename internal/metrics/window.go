package metrics

// IntervalStats accumulates samples within one measurement interval and is
// drained when the interval's report is emitted. It is the building block
// of the QoS reporters: each reporter keeps one IntervalStats per metric
// of Table I and flushes them once per measurement interval.
type IntervalStats struct {
	w Welford
}

// Add incorporates one sample into the current interval.
func (s *IntervalStats) Add(x float64) { s.w.Add(x) }

// AddN incorporates n samples of value x into the current interval.
func (s *IntervalStats) AddN(x float64, n int64) { s.w.AddN(x, n) }

// Snapshot returns the interval's (count, mean, cv) and resets the
// accumulator for the next interval.
func (s *IntervalStats) Snapshot() (count int64, mean, cv float64) {
	count, mean, cv = s.w.Count(), s.w.Mean(), s.w.CV()
	s.w.Reset()
	return count, mean, cv
}
