package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"nephelix/internal/ckpt"
	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs/ts"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
)

// Telemetry is the live metrics plane of one run: a ts.Store scraped
// every adjustment interval from the global QoS summary, the scaler's
// decision, and the Go runtime, plus a ResidualMonitor pairing each
// interval's Kingman queue-wait predictions with the next interval's
// measurements. The runtimes call ObserveInterval and ObserveE2E; the
// HTTP layer reads the result via /metrics, /timeseries and /dash.
//
// A nil *Telemetry is fully disabled: every method is a no-op costing
// one pointer comparison and zero allocations.
type Telemetry struct {
	store *ts.Store
	res   *ResidualMonitor
	slo   *SLOTracker
	bp    *BackpressureMonitor

	// Series written where their event happens (all declared in
	// registry.go): single series held by handle, labelled families
	// resolved by Family.With.
	e2e           *ts.Series
	e2eTail       *ts.Series   // quantile sketch over the same sampled stream
	tailE2E       []*ts.Series // one gauge per ts.DefaultQuantiles entry, for the dashboard sparklines
	intervals     *ts.Series
	decisions     *ts.Series
	scaleUps      *ts.Series
	scaleDowns    *ts.Series
	holds         *ts.Series
	infeasible    *ts.Series
	ckptDuration  *ts.Series
	ckptInterval  *ts.Series
	ckptStall     *ts.Series
	ckptCommitted *ts.Series
	ckptAborted   *ts.Series
	replayed      *ts.Series
	deduped       *ts.Series
	hopBatch      ts.Family
	hopTransit    ts.Family
	hopWait       ts.Family
	hopService    ts.Family
	absResidual   ts.Family
	waitRatio     ts.Family
	sloViolations ts.Family

	// mu serializes scrapes: it guards the per-interval gauge tables and
	// the latest data-plane snapshot (served by /dataplane and the SSE
	// stream).
	mu        sync.Mutex
	vertices  gauges[string, qos.VertexStats]
	edges     gauges[model.EdgeKey, qos.EdgeStats]
	residuals gauges[ResidualKey, ResidualStat]
	tailFits  gauges[tailKey, core.TailFitSnapshot]
	slos      gauges[string, SLOStatus]
	goRuntime gauges[struct{}, goSample]
	dpEdges   gauges[string, DataplaneEdge]
	dpSources gauges[sourceKey, DataplaneSource]
	dpParking gauges[string, DataplaneConsumer]
	dpWheel   gauges[struct{}, DataplaneWheel]
	dpPool    gauges[int, DataplanePoolShard]
	dpLast    *DataplaneSnapshot
}

// NewTelemetry returns an enabled telemetry plane whose series keep
// pointsPerSeries points each (ts.DefaultPoints when <= 0).
func NewTelemetry(pointsPerSeries int) *Telemetry {
	t := &Telemetry{
		store: ts.NewStore(pointsPerSeries),
		res:   NewResidualMonitor(),
		slo:   NewSLOTracker(0),
		bp:    NewBackpressureMonitor(),
	}
	t.declare(t.store)
	return t
}

// ObserveCheckpoint records what became of one barrier checkpoint: a
// commit or abort lifecycle event on rec and, for a commit, its
// injection-to-commit duration, the interval since the previous commit
// and the worst barrier-alignment stall any task reported on t (an
// abort only bumps t's abort counter). Either of t and rec may be nil.
func (t *Telemetry) ObserveCheckpoint(now float64, o ckpt.Outcome, rec *Recorder) {
	if !o.Committed {
		rec.RecordLifecycle(now, KindCheckpointAbort, Lifecycle{CheckpointID: o.ID, Reason: o.Reason})
		if t != nil {
			t.ckptAborted.Add(now, 1)
		}
		return
	}
	rec.RecordLifecycle(now, KindCheckpointCommit, Lifecycle{
		CheckpointID: o.ID, DurationSeconds: o.Duration, CommittedOffsets: o.Offsets,
	})
	if t == nil {
		return
	}
	t.ckptCommitted.Add(now, 1)
	t.ckptDuration.Set(now, o.Duration)
	if o.Interval > 0 {
		t.ckptInterval.Set(now, o.Interval)
	}
	t.ckptStall.Set(now, o.MaxStall)
}

// AddReplayed counts records re-emitted from source replay buffers
// after a recovery.
func (t *Telemetry) AddReplayed(now float64, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.replayed.Add(now, float64(n))
}

// AddDeduped counts duplicate sink deliveries detected by the
// (source, offset) dedup tables (suppressed under exactly-once).
func (t *Telemetry) AddDeduped(now float64, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.deduped.Add(now, float64(n))
}

// Store exposes the underlying time-series store (nil when disabled).
func (t *Telemetry) Store() *ts.Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Residuals exposes the prediction-residual monitor (nil when disabled).
func (t *Telemetry) Residuals() *ResidualMonitor {
	if t == nil {
		return nil
	}
	return t.res
}

// ObserveE2E feeds one sampled end-to-end record latency (seconds) into
// the e2e histogram and the e2e quantile sketch. Called at span finish;
// allocation-free after the first observation.
func (t *Telemetry) ObserveE2E(now, latency float64) {
	if t == nil {
		return
	}
	t.e2e.Observe(now, latency)
	t.e2eTail.Observe(now, latency)
}

// ObserveHop feeds one sampled record's hop decomposition into the
// per-edge and per-vertex latency sketches: batch delay, transit and
// queue wait on the edge into vertex, service time in the vertex.
// Called next to Span.Hop for head-sampled records only;
// allocation-free after each identity's first observation.
func (t *Telemetry) ObserveHop(now float64, vertex, edge string, batch, transit, wait, service float64) {
	if t == nil {
		return
	}
	t.hopBatch.With(edge).Observe(now, batch)
	t.hopTransit.With(edge).Observe(now, transit)
	t.hopWait.With(edge).Observe(now, wait)
	t.hopService.With(vertex).Observe(now, service)
}

// ObserveSLO folds one adjustment interval's tail state for one target:
// count cumulative observations, bad of them over the bound, estimate
// the current quantile. It publishes the error-budget gauges and, on a
// met→violated transition, bumps the violation counter and records a
// KindSLOViolation event on rec (which may be nil).
func (t *Telemetry) ObserveSLO(now float64, target SLOTarget, count, bad uint64, estimate float64, rec *Recorder) {
	if t == nil {
		return
	}
	st, transition := t.slo.Observe(target, count, bad, estimate)
	t.mu.Lock()
	t.slos.set(now, st, target.Constraint)
	t.mu.Unlock()
	violations := t.sloViolations.With(target.Constraint) // exists, at 0, from the target's first interval
	if transition {
		violations.Add(now, 1)
		rec.RecordLifecycle(now, KindSLOViolation, Lifecycle{
			Constraint:      target.Constraint,
			Quantile:        target.Quantile,
			EstimateSeconds: st.EstimateSeconds,
			BoundSeconds:    target.BoundSeconds,
			BurnRate:        jsonSafe(st.BurnRate),
		})
	}
}

// ObserveSLOs folds one adjustment interval's tail state for every
// constraint. Bounded probes carry the ground-truth per-path latency
// stream and the constraint bound, so each drives its own SLO cell (at its
// own quantile under a percentile constraint); when no probe has a bound,
// the fallback targets are scored against the telemetry's sampled
// end-to-end sketch.
func (t *Telemetry) ObserveSLOs(now float64, probes *probe.ProbeSet, fallback []SLOTarget, rec *Recorder) {
	if t == nil {
		return
	}
	fed := false
	for _, name := range probes.Names() {
		p := probes.Probe(name)
		if p.BoundSeconds <= 0 {
			continue
		}
		q := DefaultSLOQuantile
		if p.Quantile > 0 && p.Quantile < 1 {
			q = p.Quantile
		}
		count, bad, est := p.TailState(q)
		t.ObserveSLO(now, SLOTarget{Constraint: name, Quantile: q, BoundSeconds: p.BoundSeconds}, count, bad, est, rec)
		fed = true
	}
	if fed {
		return
	}
	for _, tg := range fallback {
		count := t.e2eTail.SketchCount()
		bad := t.e2eTail.CountAbove(tg.BoundSeconds)
		est := t.e2eTail.Quantile(tg.Quantile)
		t.ObserveSLO(now, tg, count, bad, est, rec)
	}
}

// SLOSnapshot returns every tracked target's latest status, sorted by
// constraint (empty, non-nil, when disabled or before the first
// interval).
func (t *Telemetry) SLOSnapshot() []SLOStatus {
	if t == nil {
		return []SLOStatus{}
	}
	if s := t.slo.Snapshot(); s != nil {
		return s
	}
	return []SLOStatus{}
}

// quantileLabel renders 0.99 as "p99", 0.999 as "p999".
func quantileLabel(q float64) string {
	s := strconv.FormatFloat(q*100, 'f', -1, 64)
	return "p" + strings.ReplaceAll(s, ".", "")
}

// ObserveInterval scrapes one adjustment interval: it scores the
// residual monitor (s is the interval's global summary, d the scaler's
// decision or nil), then records summary, decision, residual and Go
// runtime series. par is the live parallelism vector. It returns the
// currently drifting cells so the caller can embed them in the
// decision's audit event.
func (t *Telemetry) ObserveInterval(now float64, s *qos.Summary, d *core.Decision, par map[string]int) []DriftFlag {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	scored, flags := t.res.Observe(now, s, d)
	for _, sc := range scored {
		t.absResidual.With(sc.Constraint, sc.Vertex).Observe(now, math.Abs(sc.Measured-sc.Predicted))
	}
	for _, rs := range t.res.Snapshot() {
		t.residuals.set(now, rs, ResidualKey{Constraint: rs.Constraint, Vertex: rs.Vertex})
	}
	t.scrapeSummary(now, s, par)
	t.scrapeDecision(now, d)
	t.scrapeTail(now)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.goRuntime.set(now, goSample{ms.HeapAlloc, ms.PauseTotalNs, ms.NumGC, runtime.NumGoroutine()}, struct{}{})
	return flags
}

// scrapeTail publishes the e2e sketch's quantiles as per-interval
// gauges, so the dashboard can draw p50/p95/p99/p999 sparklines.
func (t *Telemetry) scrapeTail(now float64) {
	if t.e2eTail.SketchCount() == 0 {
		return
	}
	for i, q := range ts.DefaultQuantiles {
		t.tailE2E[i].Set(now, t.e2eTail.Quantile(q))
	}
}

// scrapeSummary publishes the per-vertex and per-edge QoS measurements.
func (t *Telemetry) scrapeSummary(now float64, s *qos.Summary, par map[string]int) {
	if s == nil {
		return
	}
	for name, vs := range s.Vertices {
		if live, ok := par[name]; ok {
			vs.Parallelism = live
		}
		t.vertices.set(now, vs, name)
	}
	for key, es := range s.Edges {
		t.edges.set(now, es, key)
	}
}

// scrapeDecision counts the interval and the decision's outcome.
func (t *Telemetry) scrapeDecision(now float64, d *core.Decision) {
	t.intervals.Add(now, 1)
	if d == nil {
		return
	}
	t.decisions.Add(now, 1)
	ups, downs := 0, 0
	for _, a := range d.Actions {
		if a.IsScaleUp() {
			ups++
		} else {
			downs++
		}
	}
	if ups > 0 {
		t.scaleUps.Add(now, float64(ups))
	}
	if downs > 0 {
		t.scaleDowns.Add(now, float64(downs))
	}
	if len(d.Holds) > 0 {
		t.holds.Add(now, float64(len(d.Holds)))
	}
	infeasible := 0
	for _, cd := range d.PerConstraint {
		if cd.Infeasible {
			infeasible++
		}
	}
	if infeasible > 0 {
		t.infeasible.Add(now, float64(infeasible))
	}
	for _, cell := range d.TailFit {
		t.tailFits.set(now, cell, tailKey{cell.Vertex, cell.Quantile})
	}
}

// TimeseriesSnapshot is the JSON payload of /timeseries and the SSE
// dashboard stream.
type TimeseriesSnapshot struct {
	Series    []ts.SeriesSnapshot `json:"series"`
	Residuals []ResidualStat      `json:"residuals"`
	Drift     []DriftFlag         `json:"drift,omitempty"`
	// SLO carries the per-constraint error-budget statuses so the
	// dashboard's tail panel renders burn rates live.
	SLO []SLOStatus `json:"slo,omitempty"`
	// Dataplane is the latest data-plane sample (null until the first
	// adjustment interval; the key is always present so stream
	// consumers can rely on it).
	Dataplane *DataplaneSnapshot `json:"dataplane"`
}

// Snapshot renders the query (see ts.Store.Query for the parameters)
// plus the residual monitor's statistics. Nil-safe: a disabled
// telemetry yields empty (non-null) collections.
func (t *Telemetry) Snapshot(prefix string, since float64, maxPoints int) TimeseriesSnapshot {
	snap := TimeseriesSnapshot{Series: []ts.SeriesSnapshot{}, Residuals: []ResidualStat{}}
	if t == nil {
		return snap
	}
	if s := t.store.Query(prefix, since, maxPoints); s != nil {
		snap.Series = s
	}
	if r := t.res.Snapshot(); r != nil {
		snap.Residuals = r
	}
	snap.Drift = t.res.DriftFlags()
	snap.SLO = t.slo.Snapshot()
	snap.Dataplane = t.Dataplane()
	return snap
}

// WriteJSON dumps the full telemetry snapshot as indented JSON — the
// shape served by /timeseries — for offline artifacts.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot("", 0, 0))
}
