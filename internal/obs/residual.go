package obs

import (
	"math"
	"sort"
	"sync"

	"nephelix/internal/core"
	"nephelix/internal/metrics"
	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// The paper's whole strategy rests on the fitted Kingman approximation
// (Equations 3–4) staying close to the queue waits that actually
// materialize. ResidualMonitor closes that loop online: at every
// decision it records W(p*) for the parallelism the scaler chose, one
// adjustment interval later it pairs the prediction with the measured
// queue wait of the vertex's ingoing sequence edge, and it keeps
// per-(constraint, vertex) Welford residual statistics plus drift flags
// that the audit trail and the prediction-quality experiment consume.

// The drift thresholds. A cell may flag drift once it has scored
// driftMinSamples predictions; it does when its mean
// |measured−predicted|/measured exceeds driftRelErr (predictions off by
// more than the measurement itself on average) or its sign bias
// (over−under)/(over+under) reaches driftBias in magnitude (nearly every
// prediction errs the same way).
const (
	driftMinSamples = 8
	driftRelErr     = 1.0
	driftBias       = 0.9
)

// DeadbandFraction exempts residuals below this fraction of the
// constraint bound from the over/under sign tally: a prediction off by a
// fraction of a millisecond against a 30 ms bound is noise, not model
// drift, even when the sign repeats every interval.
const DeadbandFraction = 0.02

// ResidualKey identifies one monitored (constraint, vertex) pair.
type ResidualKey struct {
	Constraint string `json:"constraint"`
	Vertex     string `json:"vertex"`
}

// ResidualStat is the JSON snapshot of one cell's accumulated
// prediction-residual statistics. Residual means measured − predicted,
// in seconds.
type ResidualStat struct {
	Constraint string `json:"constraint"`
	Vertex     string `json:"vertex"`
	// Samples counts scored prediction/measurement pairs.
	Samples        int64   `json:"samples"`
	ResidualMean   float64 `json:"residual_mean_seconds"`
	ResidualStdDev float64 `json:"residual_stddev_seconds"`
	// MeanAbsRelErr averages |measured−predicted|/measured over the
	// RelErrSamples pairs with a positive measurement.
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	RelErrSamples int64   `json:"rel_err_samples"`
	// Over counts predictions above the measurement, Under below;
	// SignBias is (over−under)/(over+under) in [−1, 1].
	Over     int64   `json:"over"`
	Under    int64   `json:"under"`
	SignBias float64 `json:"sign_bias"`
	// Last scored pair, for dashboards.
	LastPredicted float64 `json:"last_predicted_seconds"`
	LastMeasured  float64 `json:"last_measured_seconds"`
	LastAt        float64 `json:"last_at"`
	// Drift and DriftReasons mirror the cell's current drift flags.
	Drift        bool     `json:"drift"`
	DriftReasons []string `json:"drift_reasons,omitempty"`
}

// DriftFlag marks one (constraint, vertex) cell whose predictions have
// drifted from the measurements. Embedded in scaling_decision audit
// events and returned by the prediction-quality sweep.
type DriftFlag struct {
	Constraint string `json:"constraint"`
	Vertex     string `json:"vertex"`
	// Reason is "high-rel-err" or "sign-bias".
	Reason        string  `json:"reason"`
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	SignBias      float64 `json:"sign_bias"`
	Samples       int64   `json:"samples"`
}

// ScoredResidual is one matured prediction/measurement pair, emitted by
// Observe so the telemetry layer can feed residual histograms.
type ScoredResidual struct {
	Constraint string
	Vertex     string
	Predicted  float64
	Measured   float64
}

// BiasFloorFraction exempts pairings from the sign tally when both the
// measured and the predicted wait stay below this fraction of the
// constraint bound: the vertex is nowhere near endangering the
// constraint, so persistent micro-residual signs are not drift.
const BiasFloorFraction = 0.1

// pendingPrediction is a W(p*) waiting for the next interval's summary.
type pendingPrediction struct {
	key       ResidualKey
	edge      model.EdgeKey
	predicted float64
	// quantile > 0 marks a tail prediction (κ-inflated model): it is
	// scored against the q-quantile of the vertex's queue-wait window in
	// the summary, not the edge's mean — the drift flags then cover the
	// tail fit with the same thresholds as the mean model.
	quantile float64
	// bound is the constraint bound in seconds; it scales the sign-bias
	// deadband.
	bound float64
}

// residualCell accumulates one (constraint, vertex) pair.
type residualCell struct {
	residual metrics.Welford // measured − predicted, seconds
	absRel   metrics.Welford // |measured−predicted|/measured, measured > 0
	over     int64
	under    int64

	lastPredicted float64
	lastMeasured  float64
	lastAt        float64
}

// ResidualMonitor pairs Kingman queue-wait predictions with the
// measured waits of the following adjustment interval. All methods are
// nil-safe and safe for concurrent use.
type ResidualMonitor struct {
	mu      sync.Mutex
	cells   map[ResidualKey]*residualCell
	pending []pendingPrediction
}

// NewResidualMonitor returns an empty monitor.
func NewResidualMonitor() *ResidualMonitor {
	return &ResidualMonitor{cells: make(map[ResidualKey]*residualCell)}
}

// Observe advances the monitor by one adjustment interval: predictions
// registered last interval are scored against s (the interval's global
// summary), then d's fitted models register this interval's predictions
// at the parallelism the decision settled on. d may be nil (scaler
// inactive or absent); pending predictions are still scored. It returns
// the pairs scored this call and the full set of currently drifting
// cells, both in deterministic order.
func (m *ResidualMonitor) Observe(now float64, s *qos.Summary, d *core.Decision) (scored []ScoredResidual, flags []DriftFlag) {
	if m == nil {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	if s != nil {
		for _, p := range m.pending {
			var measured float64
			if p.quantile > 0 {
				win := s.Vertices[p.key.Vertex].WaitWindow
				if win.Count() == 0 {
					continue // no queue wait recorded this interval: unscoreable
				}
				measured = win.Quantile(p.quantile)
			} else {
				es, ok := s.Edge(p.edge)
				if !ok {
					continue // edge vanished from the summary: unscoreable
				}
				measured = es.QueueWait()
			}
			cell := m.cells[p.key]
			if cell == nil {
				cell = &residualCell{}
				m.cells[p.key] = cell
			}
			cell.residual.Add(measured - p.predicted)
			if measured > 0 {
				cell.absRel.Add(math.Abs(measured-p.predicted) / measured)
			}
			switch {
			case math.Abs(measured-p.predicted) < DeadbandFraction*p.bound:
				// Within the deadband: too small relative to the
				// constraint bound to count as sign evidence.
			case p.bound > 0 && measured < BiasFloorFraction*p.bound &&
				p.predicted < BiasFloorFraction*p.bound:
				// Both sides of the pairing sit far below the bound:
				// whatever the sign, the cell cannot mislead a scaling
				// decision, so it is noise rather than drift.
			case p.predicted > measured:
				cell.over++
			case p.predicted < measured:
				cell.under++
			}
			cell.lastPredicted = p.predicted
			cell.lastMeasured = measured
			cell.lastAt = now
			scored = append(scored, ScoredResidual{
				Constraint: p.key.Constraint,
				Vertex:     p.key.Vertex,
				Predicted:  p.predicted,
				Measured:   measured,
			})
		}
	}
	m.pending = m.pending[:0]

	if d != nil {
		for _, cd := range d.PerConstraint {
			if cd.Skipped || cd.Constraint == nil || len(cd.Models) == 0 {
				continue // bottleneck or skipped path: no fitted models
			}
			for _, vm := range cd.Models {
				p, ok := d.Desired[vm.Name]
				if !ok {
					p, ok = cd.Parallelism[vm.Name]
				}
				if !ok {
					p = vm.Current
				}
				predicted := vm.Wait(p)
				if math.IsInf(predicted, 0) || math.IsNaN(predicted) {
					continue // model predicts saturation: not scoreable
				}
				edge, ok := cd.Constraint.Sequence.IngoingEdge(vm.Name)
				if !ok {
					continue // first sequence element: no ingoing edge to measure
				}
				m.pending = append(m.pending, pendingPrediction{
					key:       ResidualKey{Constraint: cd.Constraint.Name, Vertex: vm.Name},
					edge:      edge,
					predicted: predicted,
					quantile:  vm.TailQuantile,
					bound:     cd.Constraint.Bound.Seconds(),
				})
			}
		}
	}

	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Constraint != scored[j].Constraint {
			return scored[i].Constraint < scored[j].Constraint
		}
		return scored[i].Vertex < scored[j].Vertex
	})
	return scored, m.driftLocked()
}

// driftLocked returns the drifting cells sorted by key. Callers hold m.mu.
func (m *ResidualMonitor) driftLocked() []DriftFlag {
	var flags []DriftFlag
	for key, cell := range m.cells {
		for _, reason := range cellDrift(cell) {
			flags = append(flags, DriftFlag{
				Constraint:    key.Constraint,
				Vertex:        key.Vertex,
				Reason:        reason,
				MeanAbsRelErr: cell.absRel.Mean(),
				SignBias:      cellBias(cell),
				Samples:       cell.residual.Count(),
			})
		}
	}
	sort.Slice(flags, func(i, j int) bool {
		a, b := flags[i], flags[j]
		if a.Constraint != b.Constraint {
			return a.Constraint < b.Constraint
		}
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		return a.Reason < b.Reason
	})
	return flags
}

// cellDrift lists a cell's active drift reasons.
func cellDrift(cell *residualCell) []string {
	var reasons []string
	if cell.absRel.Count() >= driftMinSamples && cell.absRel.Mean() > driftRelErr {
		reasons = append(reasons, "high-rel-err")
	}
	if cell.over+cell.under >= driftMinSamples && math.Abs(cellBias(cell)) >= driftBias {
		reasons = append(reasons, "sign-bias")
	}
	return reasons
}

func cellBias(cell *residualCell) float64 {
	if cell.over+cell.under == 0 {
		return 0
	}
	return float64(cell.over-cell.under) / float64(cell.over+cell.under)
}

// DriftFlags returns the currently drifting cells sorted by key.
func (m *ResidualMonitor) DriftFlags() []DriftFlag {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.driftLocked()
}

// Snapshot returns every cell's statistics sorted by (constraint,
// vertex). Nil-safe.
func (m *ResidualMonitor) Snapshot() []ResidualStat {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]ResidualKey, 0, len(m.cells))
	for key := range m.cells {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Constraint != keys[j].Constraint {
			return keys[i].Constraint < keys[j].Constraint
		}
		return keys[i].Vertex < keys[j].Vertex
	})
	out := make([]ResidualStat, 0, len(keys))
	for _, key := range keys {
		cell := m.cells[key]
		reasons := cellDrift(cell)
		out = append(out, ResidualStat{
			Constraint:     key.Constraint,
			Vertex:         key.Vertex,
			Samples:        cell.residual.Count(),
			ResidualMean:   cell.residual.Mean(),
			ResidualStdDev: cell.residual.StdDev(),
			MeanAbsRelErr:  cell.absRel.Mean(),
			RelErrSamples:  cell.absRel.Count(),
			Over:           cell.over,
			Under:          cell.under,
			SignBias:       cellBias(cell),
			LastPredicted:  cell.lastPredicted,
			LastMeasured:   cell.lastMeasured,
			LastAt:         cell.lastAt,
			Drift:          len(reasons) > 0,
			DriftReasons:   reasons,
		})
	}
	return out
}

// Merge folds another monitor's accumulated cells into this one using
// the parallel Welford merge; pending (unscored) predictions are not
// transferred. The prediction-quality sweep merges per-seed monitors in
// seed order so the pooled result is deterministic.
func (m *ResidualMonitor) Merge(o *ResidualMonitor) {
	if m == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, ocell := range o.cells {
		cell := m.cells[key]
		if cell == nil {
			cell = &residualCell{}
			m.cells[key] = cell
		}
		cell.residual.Merge(ocell.residual)
		cell.absRel.Merge(ocell.absRel)
		cell.over += ocell.over
		cell.under += ocell.under
		if ocell.lastAt >= cell.lastAt {
			cell.lastPredicted = ocell.lastPredicted
			cell.lastMeasured = ocell.lastMeasured
			cell.lastAt = ocell.lastAt
		}
	}
}
