package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

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

	// Hot-path and per-tick handles, cached at construction.
	e2e       *ts.Series
	e2eTail   *ts.Series // quantile sketch over the same sampled stream
	intervals *ts.Series
	decisions *ts.Series
	scaleUps  *ts.Series
	scaleDown *ts.Series
	holds     *ts.Series
	infeas    *ts.Series

	// tailGauges publish the e2e sketch's quantiles per interval, one
	// gauge per ts.DefaultQuantiles entry, for the dashboard sparklines.
	tailGauges []*ts.Series

	// Processing-guarantee series (checkpoint lifecycle, replay, dedup).
	ckptDur       *ts.Series
	ckptInterval  *ts.Series
	ckptStall     *ts.Series
	ckptCommitted *ts.Series
	ckptAborted   *ts.Series
	replayed      *ts.Series
	deduped       *ts.Series

	// slo accumulates per-constraint error-budget state; sloHandles
	// caches the per-constraint gauge/counter series.
	slo    *SLOTracker
	sloMu  sync.Mutex
	sloOut map[string]*sloSeries

	// Per-hop latency sketches, cached per edge/vertex identity so the
	// sampled data-plane path does only map lookups (no allocation).
	hopMu      sync.Mutex
	hopEdges   map[string]*hopSeries
	hopService map[string]*ts.Series

	// Per-interval series, resolved once per identity and then written
	// through the handle: a scrape builds no label map and no series key.
	// mu serializes scrapes.
	mu        sync.Mutex
	vertexOut map[string]*vertexSeries
	edgeOut   map[model.EdgeKey]*edgeSeries
	resOut    map[ResidualKey]*residualSeries
	tailOut   map[tailKey]*tailSeries
	goOut     [4]*ts.Series

	// Data-plane X-ray state: the backpressure monitor, the latest
	// sampled snapshot (served by /dataplane and the SSE stream), and
	// the cached gauge handles keyed by edge / lane / pool shard.
	bp            *BackpressureMonitor
	dpMu          sync.Mutex
	dpLast        *DataplaneSnapshot
	dpEdges       map[string]*dataplaneEdgeSeries
	dpShards      map[string]*dataplaneShardSeries
	dpPool        map[int]*ts.Series
	dpWaitRatio   map[string]*ts.Series
	dpWheelFires  *ts.Series
	dpWheelArmed  *ts.Series
	dpWheelParked *ts.Series
}

// hopSeries bundles one edge's per-hop latency sketches.
type hopSeries struct {
	batch   *ts.Series
	transit *ts.Series
	wait    *ts.Series
}

// vertexSeries, edgeSeries, residualSeries and tailSeries bundle the
// per-interval series of one vertex, edge, (constraint, vertex) cell and
// (vertex, quantile) tail-fit cell.
type vertexSeries struct {
	parallelism, utilization, serviceMean, arrivalRate, taskLatency, freshTasks *ts.Series
}

type edgeSeries struct{ queueWait, channelLatency, batchLatency *ts.Series }

type residualSeries struct{ abs, mean, stddev, relErr, signBias, drift *ts.Series }

type tailKey struct {
	vertex   string
	quantile float64
}

type tailSeries struct{ kappa, wait *ts.Series }

// sloSeries bundles one constraint's SLO output series.
type sloSeries struct {
	budget     *ts.Series
	burn       *ts.Series
	estimate   *ts.Series
	bound      *ts.Series
	violations *ts.Series
}

// NewTelemetry returns an enabled telemetry plane whose series keep
// pointsPerSeries points each (ts.DefaultPoints when <= 0).
func NewTelemetry(pointsPerSeries int) *Telemetry {
	st := ts.NewStore(pointsPerSeries)
	tailGauges := make([]*ts.Series, len(ts.DefaultQuantiles))
	for i, q := range ts.DefaultQuantiles {
		tailGauges[i] = st.Gauge("nephelix_tail_e2e_seconds",
			map[string]string{"q": quantileLabel(q)})
	}
	t := &Telemetry{
		store:      st,
		res:        NewResidualMonitor(ResidualConfig{}),
		e2e:        st.Histogram("nephelix_e2e_latency_seconds", nil, ts.LatencyBuckets),
		e2eTail:    st.SketchSeries("nephelix_e2e_latency_tail_seconds", nil, 0),
		tailGauges: tailGauges,
		slo:        NewSLOTracker(0),
		sloOut:     make(map[string]*sloSeries),
		hopEdges:   make(map[string]*hopSeries),
		hopService: make(map[string]*ts.Series),
		intervals:  st.Counter("nephelix_adjust_intervals_total", nil),
		decisions:  st.Counter("nephelix_scaler_decisions_total", nil),
		scaleUps:   st.Counter("nephelix_scaler_scale_ups_total", nil),
		scaleDown:  st.Counter("nephelix_scaler_scale_downs_total", nil),
		holds:      st.Counter("nephelix_scaler_holds_total", nil),
		infeas:     st.Counter("nephelix_scaler_infeasible_total", nil),
		vertexOut:  make(map[string]*vertexSeries),
		edgeOut:    make(map[model.EdgeKey]*edgeSeries),
		resOut:     make(map[ResidualKey]*residualSeries),
		tailOut:    make(map[tailKey]*tailSeries),

		ckptDur:       st.Gauge("nephelix_checkpoint_duration_seconds", nil),
		ckptInterval:  st.Gauge("nephelix_checkpoint_interval_seconds", nil),
		ckptStall:     st.Gauge("nephelix_checkpoint_alignment_stall_seconds", nil),
		ckptCommitted: st.Counter("nephelix_checkpoints_committed_total", nil),
		ckptAborted:   st.Counter("nephelix_checkpoints_aborted_total", nil),
		replayed:      st.Counter("nephelix_replayed_records_total", nil),
		deduped:       st.Counter("nephelix_deduped_records_total", nil),
	}
	t.dpInit()
	return t
}

// ObserveCheckpoint records one finished barrier checkpoint: its
// injection-to-commit duration, the interval since the previous commit,
// and the worst barrier-alignment stall any task reported. Aborted
// checkpoints only bump the abort counter.
func (t *Telemetry) ObserveCheckpoint(now, duration, interval, stall float64, committed bool) {
	if t == nil {
		return
	}
	if !committed {
		t.ckptAborted.Add(now, 1)
		return
	}
	t.ckptCommitted.Add(now, 1)
	t.ckptDur.Set(now, duration)
	if interval > 0 {
		t.ckptInterval.Set(now, interval)
	}
	t.ckptStall.Set(now, stall)
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
// Called next to Span.Hop for head-sampled records only; the cached
// handle maps keep the path allocation-free after each identity's
// first observation.
func (t *Telemetry) ObserveHop(now float64, vertex, edge string, batch, transit, wait, service float64) {
	if t == nil {
		return
	}
	t.hopMu.Lock()
	hs := t.hopEdges[edge]
	if hs == nil {
		labels := map[string]string{"edge": edge}
		hs = &hopSeries{
			batch:   t.store.SketchSeries("nephelix_hop_batch_delay_seconds", labels, 0),
			transit: t.store.SketchSeries("nephelix_hop_transit_seconds", labels, 0),
			wait:    t.store.SketchSeries("nephelix_hop_queue_wait_seconds", labels, 0),
		}
		t.hopEdges[edge] = hs
	}
	sv := t.hopService[vertex]
	if sv == nil {
		sv = t.store.SketchSeries("nephelix_hop_service_seconds",
			map[string]string{"vertex": vertex}, 0)
		t.hopService[vertex] = sv
	}
	t.hopMu.Unlock()
	hs.batch.Observe(now, batch)
	hs.transit.Observe(now, transit)
	hs.wait.Observe(now, wait)
	sv.Observe(now, service)
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
	out := t.sloSeriesFor(target.Constraint)
	out.budget.Set(now, st.ErrorBudgetRemaining)
	out.burn.Set(now, st.BurnRate)
	out.estimate.Set(now, st.EstimateSeconds)
	out.bound.Set(now, target.BoundSeconds)
	if transition {
		out.violations.Add(now, 1)
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

// sloSeriesFor returns the cached output series of one constraint.
func (t *Telemetry) sloSeriesFor(constraint string) *sloSeries {
	t.sloMu.Lock()
	defer t.sloMu.Unlock()
	out := t.sloOut[constraint]
	if out == nil {
		labels := map[string]string{"constraint": constraint}
		out = &sloSeries{
			budget:     t.store.Gauge("nephelix_slo_error_budget_remaining", labels),
			burn:       t.store.Gauge("nephelix_slo_burn_rate", labels),
			estimate:   t.store.Gauge("nephelix_slo_estimate_seconds", labels),
			bound:      t.store.Gauge("nephelix_slo_bound_seconds", labels),
			violations: t.store.Counter("nephelix_slo_violations_total", labels),
		}
		t.sloOut[constraint] = out
	}
	return out
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
		t.residualSeriesFor(sc.Constraint, sc.Vertex).abs.Observe(now, math.Abs(sc.Measured-sc.Predicted))
	}
	t.scrapeResiduals(now)
	t.scrapeSummary(now, s, par)
	t.scrapeDecision(now, d)
	t.scrapeTail(now)
	t.scrapeRuntime(now)
	return flags
}

// scrapeTail publishes the e2e sketch's quantiles as per-interval
// gauges, so the dashboard can draw p50/p95/p99/p999 sparklines.
func (t *Telemetry) scrapeTail(now float64) {
	if t.e2eTail.SketchCount() == 0 {
		return
	}
	for i, q := range ts.DefaultQuantiles {
		t.tailGauges[i].Set(now, t.e2eTail.Quantile(q))
	}
}

// residualSeriesFor returns the series of one monitored cell.
func (t *Telemetry) residualSeriesFor(constraint, vertex string) *residualSeries {
	key := ResidualKey{Constraint: constraint, Vertex: vertex}
	out := t.resOut[key]
	if out == nil {
		labels := map[string]string{"constraint": constraint, "vertex": vertex}
		out = &residualSeries{
			abs:      t.store.Histogram("nephelix_model_abs_residual_seconds", labels, ts.LatencyBuckets),
			mean:     t.store.Gauge("nephelix_model_residual_mean_seconds", labels),
			stddev:   t.store.Gauge("nephelix_model_residual_stddev_seconds", labels),
			relErr:   t.store.Gauge("nephelix_model_rel_err_mean", labels),
			signBias: t.store.Gauge("nephelix_model_sign_bias", labels),
			drift:    t.store.Gauge("nephelix_model_drift", labels),
		}
		t.resOut[key] = out
	}
	return out
}

// scrapeResiduals publishes the monitor's aggregate statistics as
// gauge series.
func (t *Telemetry) scrapeResiduals(now float64) {
	for _, rs := range t.res.Snapshot() {
		out := t.residualSeriesFor(rs.Constraint, rs.Vertex)
		out.mean.Set(now, rs.ResidualMean)
		out.stddev.Set(now, rs.ResidualStdDev)
		out.relErr.Set(now, rs.MeanAbsRelErr)
		out.signBias.Set(now, rs.SignBias)
		drift := 0.0
		if rs.Drift {
			drift = 1
		}
		out.drift.Set(now, drift)
	}
}

// scrapeSummary publishes the per-vertex and per-edge QoS measurements.
func (t *Telemetry) scrapeSummary(now float64, s *qos.Summary, par map[string]int) {
	if s == nil {
		return
	}
	for name, vs := range s.Vertices {
		out := t.vertexOut[name]
		if out == nil {
			labels := map[string]string{"vertex": name}
			out = &vertexSeries{
				parallelism: t.store.Gauge("nephelix_vertex_parallelism", labels),
				utilization: t.store.Gauge("nephelix_vertex_utilization", labels),
				serviceMean: t.store.Gauge("nephelix_vertex_service_mean_seconds", labels),
				arrivalRate: t.store.Gauge("nephelix_vertex_arrival_rate", labels),
				taskLatency: t.store.Gauge("nephelix_vertex_task_latency_seconds", labels),
				freshTasks:  t.store.Gauge("nephelix_vertex_fresh_tasks", labels),
			}
			t.vertexOut[name] = out
		}
		p := vs.Parallelism
		if live, ok := par[name]; ok {
			p = live
		}
		out.parallelism.Set(now, float64(p))
		out.utilization.Set(now, vs.Utilization())
		out.serviceMean.Set(now, vs.ServiceTimeMean)
		out.arrivalRate.Set(now, vs.ArrivalRate())
		out.taskLatency.Set(now, vs.TaskLatency)
		out.freshTasks.Set(now, float64(vs.FreshTasks))
	}
	for key, es := range s.Edges {
		out := t.edgeOut[key]
		if out == nil {
			labels := map[string]string{"edge": key.String()}
			out = &edgeSeries{
				queueWait:      t.store.Gauge("nephelix_edge_queue_wait_seconds", labels),
				channelLatency: t.store.Gauge("nephelix_edge_channel_latency_seconds", labels),
				batchLatency:   t.store.Gauge("nephelix_edge_batch_latency_seconds", labels),
			}
			t.edgeOut[key] = out
		}
		out.queueWait.Set(now, es.QueueWait())
		out.channelLatency.Set(now, es.ChannelLatency)
		out.batchLatency.Set(now, es.OutputBatchLatency)
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
		t.scaleDown.Add(now, float64(downs))
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
		t.infeas.Add(now, float64(infeasible))
	}
	for _, cell := range d.TailFit {
		key := tailKey{cell.Vertex, cell.Quantile}
		out := t.tailOut[key]
		if out == nil {
			labels := map[string]string{"vertex": cell.Vertex, "q": quantileLabel(cell.Quantile)}
			out = &tailSeries{
				kappa: t.store.Gauge("nephelix_tail_kappa", labels),
				wait:  t.store.Gauge("nephelix_tail_wait_seconds", labels),
			}
			t.tailOut[key] = out
		}
		out.kappa.Set(now, cell.Kappa)
		out.wait.Set(now, cell.LastTail)
	}
}

// scrapeRuntime samples the Go runtime: heap, GC and goroutine counts.
// One ReadMemStats per adjustment interval is cheap enough.
func (t *Telemetry) scrapeRuntime(now float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if t.goOut[0] == nil {
		t.goOut = [4]*ts.Series{
			t.store.Gauge("nephelix_go_heap_alloc_bytes", nil),
			t.store.Gauge("nephelix_go_gc_pause_total_seconds", nil),
			t.store.Gauge("nephelix_go_gcs_total", nil),
			t.store.Gauge("nephelix_go_goroutines", nil),
		}
	}
	t.goOut[0].Set(now, float64(ms.HeapAlloc))
	t.goOut[1].Set(now, float64(ms.PauseTotalNs)/1e9)
	t.goOut[2].Set(now, float64(ms.NumGC))
	t.goOut[3].Set(now, float64(runtime.NumGoroutine()))
}

// ExpositionMetrics renders the store for /metrics: counters and gauges
// as their latest value, histograms with cumulative buckets. The result
// is sorted by series identity, so scrapes are deterministic.
func (t *Telemetry) ExpositionMetrics() []Metric {
	if t == nil {
		return nil
	}
	snaps := t.store.Snapshot()
	out := make([]Metric, 0, len(snaps))
	for _, sn := range snaps {
		m := Metric{Name: sn.Name, Help: metricHelp[sn.Name], Labels: sn.Labels, Type: sn.Kind}
		switch sn.Kind {
		case "counter":
			m.Value = sn.Total
		case "histogram":
			m.Sum = sn.Sum
			m.SampleCount = sn.Count
			m.Buckets = make([]BucketCount, len(sn.Buckets))
			for i, b := range sn.Buckets {
				m.Buckets[i] = BucketCount{UpperBound: b.LE, CumulativeCount: b.Count}
			}
		case "sketch":
			// Sketch series render as Prometheus summaries: one sample
			// per exposed quantile plus _sum/_count.
			m.Type = "summary"
			m.Sum = sn.Sum
			m.SampleCount = sn.Count
			m.Quantiles = make([]SummaryQuantile, len(sn.Quantiles))
			for i, qv := range sn.Quantiles {
				m.Quantiles[i] = SummaryQuantile{Quantile: qv.Quantile, Value: qv.Value}
			}
		default:
			if n := len(sn.Points); n > 0 {
				m.Value = sn.Points[n-1].V
			}
		}
		out = append(out, m)
	}
	return out
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
