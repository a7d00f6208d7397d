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

// Peek returns the interval's statistics without resetting.
func (s *IntervalStats) Peek() (count int64, mean, cv float64) {
	return s.w.Count(), s.w.Mean(), s.w.CV()
}

// RateMeter counts events and converts them into a rate over the interval
// between snapshots. Time is supplied by the caller (seconds), so the
// meter works under both wall-clock and virtual simulation time.
type RateMeter struct {
	count     int64
	lastReset float64
}

// NewRateMeter creates a meter whose first interval starts at now
// (seconds).
func NewRateMeter(now float64) *RateMeter {
	return &RateMeter{lastReset: now}
}

// Mark records n events.
func (m *RateMeter) Mark(n int64) { m.count += n }

// Snapshot returns the event rate (events/second) since the previous
// snapshot and starts a new interval at now.
func (m *RateMeter) Snapshot(now float64) float64 {
	elapsed := now - m.lastReset
	rate := 0.0
	if elapsed > 0 {
		rate = float64(m.count) / elapsed
	}
	m.count = 0
	m.lastReset = now
	return rate
}

// Count returns the events recorded in the current interval.
func (m *RateMeter) Count() int64 { return m.count }

// EWMA is an exponentially weighted moving average with configurable
// smoothing factor alpha in (0, 1]; larger alpha weights recent samples
// more. The zero value is invalid: use NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA creates an EWMA with the given smoothing factor.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates a sample.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before any sample.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been added.
func (e *EWMA) Initialized() bool { return e.init }
