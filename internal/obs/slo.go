package obs

import (
	"sort"
	"sync"

	"nephelix/internal/model"
)

// DefaultSLOQuantile is the tail percentile tracked per latency
// constraint when no explicit target is configured: the constraint's
// bound must hold at p99, so 1% of records form the error budget.
const DefaultSLOQuantile = 0.99

// DefaultBurnWindow is the number of adjustment intervals the burn-rate
// sliding window spans.
const DefaultBurnWindow = 6

// SLOTarget is one tail-latency objective: the fraction Quantile of
// end-to-end latencies must stay at or below BoundSeconds. The
// remaining 1−Quantile is the error budget.
type SLOTarget struct {
	Constraint   string  `json:"constraint"`
	Quantile     float64 `json:"quantile"`
	BoundSeconds float64 `json:"bound_seconds"`
}

// SLOTargetsFromConstraints derives one target per latency constraint,
// reusing the constraint's name and bound. Percentile constraints carry
// their own quantile; mean constraints get the DefaultSLOQuantile
// error-budget accounting. The result is deterministic (input order
// preserved).
func SLOTargetsFromConstraints(cs []*model.Constraint) []SLOTarget {
	if len(cs) == 0 {
		return nil
	}
	out := make([]SLOTarget, 0, len(cs))
	for _, c := range cs {
		if c == nil {
			continue
		}
		q := DefaultSLOQuantile
		if c.IsPercentile() {
			q = c.Quantile
		}
		out = append(out, SLOTarget{
			Constraint:   c.Name,
			Quantile:     q,
			BoundSeconds: c.Bound.Seconds(),
		})
	}
	return out
}

// SLOStatus is the JSON state of one target, served on /slo and pushed
// over the dashboard SSE feed.
type SLOStatus struct {
	Constraint   string  `json:"constraint"`
	Quantile     float64 `json:"quantile"`
	BoundSeconds float64 `json:"bound_seconds"`
	// EstimateSeconds is the sketch's current estimate of the tracked
	// quantile over the whole run.
	EstimateSeconds float64 `json:"estimate_seconds"`
	// Count and Bad are cumulative observations and observations over
	// the bound; BadFraction = Bad/Count.
	Count       uint64  `json:"count"`
	Bad         uint64  `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	// ErrorBudgetRemaining is 1 − BadFraction/(1−Quantile): 1 when no
	// record exceeded the bound, 0 when the budget is exactly spent,
	// negative when overspent.
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	// BurnRate is the windowed budget consumption speed: the bad
	// fraction of the last WindowIntervals intervals divided by the
	// allowed fraction. 1 means burning exactly at the sustainable
	// rate; >1 exhausts the budget early.
	BurnRate        float64 `json:"burn_rate"`
	WindowIntervals int     `json:"window_intervals"`
	// Violated is true while the quantile estimate exceeds the bound;
	// Violations counts met→violated transitions (each also recorded as
	// a KindSLOViolation event on the flight recorder).
	Violated   bool  `json:"violated"`
	Violations int64 `json:"violations"`
}

// sloPoint is one interval's cumulative (count, bad) pair; the burn
// window differentiates against its oldest entry.
type sloPoint struct {
	count uint64
	bad   uint64
}

type sloCell struct {
	ring       []sloPoint
	next       int
	full       bool
	violated   bool
	violations int64
	last       SLOStatus
}

// SLOTracker accumulates per-target error-budget state across
// adjustment intervals. All methods are nil-safe and concurrency-safe.
type SLOTracker struct {
	mu     sync.Mutex
	window int
	cells  map[string]*sloCell
}

// NewSLOTracker returns a tracker whose burn-rate window spans window
// intervals (DefaultBurnWindow when <= 0).
func NewSLOTracker(window int) *SLOTracker {
	if window <= 0 {
		window = DefaultBurnWindow
	}
	return &SLOTracker{window: window, cells: make(map[string]*sloCell)}
}

// Observe folds one interval's cumulative tail state for target:
// count observations so far, bad of them over the bound, and the
// current quantile estimate. It returns the target's new status and
// whether this interval crossed from met to violated.
func (t *SLOTracker) Observe(target SLOTarget, count, bad uint64, estimate float64) (SLOStatus, bool) {
	if t == nil {
		return SLOStatus{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cells[target.Constraint]
	if c == nil {
		c = &sloCell{ring: make([]sloPoint, t.window)}
		t.cells[target.Constraint] = c
	}

	budget := 1 - target.Quantile // allowed bad fraction
	st := SLOStatus{
		Constraint:      target.Constraint,
		Quantile:        target.Quantile,
		BoundSeconds:    target.BoundSeconds,
		EstimateSeconds: estimate,
		Count:           count,
		Bad:             bad,
		WindowIntervals: t.window,
	}
	if count > 0 {
		st.BadFraction = float64(bad) / float64(count)
	}
	if budget > 0 {
		st.ErrorBudgetRemaining = 1 - st.BadFraction/budget
	}

	// Windowed burn rate: bad fraction of the observations that arrived
	// within the window, over the allowed fraction.
	oldest := sloPoint{}
	if c.full {
		oldest = c.ring[c.next]
	}
	if dc := count - oldest.count; dc > 0 && budget > 0 {
		db := bad - oldest.bad
		st.BurnRate = (float64(db) / float64(dc)) / budget
	}
	c.ring[c.next] = sloPoint{count: count, bad: bad}
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.full = true
	}

	violated := count > 0 && estimate > target.BoundSeconds
	transition := violated && !c.violated
	c.violated = violated
	if transition {
		c.violations++
	}
	st.Violated = violated
	st.Violations = c.violations
	c.last = st
	return st, transition
}

// Snapshot returns every target's latest status, sorted by constraint
// name. A nil tracker returns nil.
func (t *SLOTracker) Snapshot() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.cells))
	for n := range t.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SLOStatus, len(names))
	for i, n := range names {
		out[i] = t.cells[n].last
	}
	return out
}
