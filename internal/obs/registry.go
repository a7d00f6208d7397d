package obs

import (
	"strconv"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs/ts"
	"nephelix/internal/qos"
)

// The vocabulary. Every series the telemetry plane exposes is declared in
// this file, once: its name, HELP text, kind and label names, and — for
// the gauges scraped every adjustment interval — the expression that reads
// its value off the scraped subject. A series is added by adding a row;
// the /metrics golden (internal/apps/testdata/telemetry.prom) then differs
// by exactly that row's lines. The six recorder/tracer built-ins of
// /metrics are the only series declared elsewhere (builtinMetrics).

// row is one per-interval gauge of a subject of type S.
type row[S any] struct {
	name, help string
	value      func(*S) float64
}

var vertexRows = []row[qos.VertexStats]{
	{"nephelix_vertex_parallelism", "Live task count per vertex.", func(v *qos.VertexStats) float64 { return float64(v.Parallelism) }},
	{"nephelix_vertex_utilization", "Mean task utilization per vertex over the last interval.", func(v *qos.VertexStats) float64 { return v.Utilization() }},
	{"nephelix_vertex_service_mean_seconds", "Mean UDF service time per vertex.", func(v *qos.VertexStats) float64 { return v.ServiceTimeMean }},
	{"nephelix_vertex_arrival_rate", "Per-task record arrival rate per vertex.", func(v *qos.VertexStats) float64 { return v.ArrivalRate() }},
	{"nephelix_vertex_task_latency_seconds", "Mean task latency (read-write) per vertex.", func(v *qos.VertexStats) float64 { return v.TaskLatency }},
	{"nephelix_vertex_fresh_tasks", "Tasks with fresh QoS reports per vertex.", func(v *qos.VertexStats) float64 { return float64(v.FreshTasks) }},
}

var edgeRows = []row[qos.EdgeStats]{
	{"nephelix_edge_queue_wait_seconds", "Measured mean queue wait per edge (QoS layer).", func(e *qos.EdgeStats) float64 { return e.QueueWait() }},
	{"nephelix_edge_channel_latency_seconds", "Mean channel latency per edge.", func(e *qos.EdgeStats) float64 { return e.ChannelLatency }},
	{"nephelix_edge_batch_latency_seconds", "Mean output batch latency per edge.", func(e *qos.EdgeStats) float64 { return e.OutputBatchLatency }},
}

// residualRows: one (constraint, vertex) cell of the residual monitor.
var residualRows = []row[ResidualStat]{
	{"nephelix_model_residual_mean_seconds", "Mean prediction residual (measured-predicted queue wait).", func(r *ResidualStat) float64 { return r.ResidualMean }},
	{"nephelix_model_residual_stddev_seconds", "Stddev of the prediction residual.", func(r *ResidualStat) float64 { return r.ResidualStdDev }},
	{"nephelix_model_rel_err_mean", "Mean absolute relative prediction error.", func(r *ResidualStat) float64 { return r.MeanAbsRelErr }},
	{"nephelix_model_sign_bias", "Prediction sign bias (over-under)/(over+under).", func(r *ResidualStat) float64 { return r.SignBias }},
	{"nephelix_model_drift", "1 when the cell's predictions have drifted, else 0.", func(r *ResidualStat) float64 { return bool01(r.Drift) }},
}

// tailFitRows: one (vertex, quantile) cell of the scaler's tail fitter.
var tailFitRows = []row[core.TailFitSnapshot]{
	{"nephelix_tail_kappa", "Fitted tail coefficient kappa per vertex and target quantile (tail wait over mean wait, >= 1).", func(c *core.TailFitSnapshot) float64 { return c.Kappa }},
	{"nephelix_tail_wait_seconds", "Measured tail-quantile queue wait of the last fit window per vertex.", func(c *core.TailFitSnapshot) float64 { return c.LastTail }},
}

var sloRows = []row[SLOStatus]{
	{"nephelix_slo_error_budget_remaining", "Remaining error budget per constraint, 0-1.", func(s *SLOStatus) float64 { return s.ErrorBudgetRemaining }},
	{"nephelix_slo_burn_rate", "Error-budget burn rate over the sliding window.", func(s *SLOStatus) float64 { return s.BurnRate }},
	{"nephelix_slo_estimate_seconds", "Current tracked-quantile latency estimate per constraint.", func(s *SLOStatus) float64 { return s.EstimateSeconds }},
	{"nephelix_slo_bound_seconds", "Constraint latency bound.", func(s *SLOStatus) float64 { return s.BoundSeconds }},
}

var dataplaneEdgeRows = []row[DataplaneEdge]{
	{"nephelix_dataplane_ring_occupancy", "Summed SPSC ring occupancy (batches) per edge at sample time.", func(e *DataplaneEdge) float64 { return float64(e.Occupancy) }},
	{"nephelix_dataplane_ring_occupancy_frac", "Ring occupancy over capacity per edge, 0-1.", func(e *DataplaneEdge) float64 { return e.OccupancyFrac }},
	{"nephelix_dataplane_ring_high_water", "Worst single-ring occupancy high-water mark per edge.", func(e *DataplaneEdge) float64 { return float64(e.HighWater) }},
	{"nephelix_dataplane_ring_push_rate", "Successful ring pushes per second per edge (batches).", func(e *DataplaneEdge) float64 { return e.PushRate }},
	{"nephelix_dataplane_ring_stall_rate", "Full-ring push rejections per second per edge.", func(e *DataplaneEdge) float64 { return e.StallRate }},
	{"nephelix_dataplane_ring_stall_frac", "Failed pushes over attempted pushes per edge this interval.", func(e *DataplaneEdge) float64 { return e.StallFrac }},
	{"nephelix_dataplane_ring_wait_seconds", "Estimated batch queueing time per edge (Little's law).", func(e *DataplaneEdge) float64 { return e.RingWaitSeconds }},
	{"nephelix_dataplane_backpressure_state", "Backpressure classification per edge: 0 idle, 1 producer-limited, 2 consumer-limited, 3 ring-saturated.", func(e *DataplaneEdge) float64 { return backpressureStateValue(BackpressureState(e.State)) }},
}

var dataplaneShardRows = []row[DataplaneShard]{
	{"nephelix_source_shard_emitted", "Records emitted by one source emitter shard (cumulative, labeled vertex/task/shard).", func(s *DataplaneShard) float64 { return float64(s.Emitted) }},
	{"nephelix_dataplane_shard_lag_frac", "Source shard pacing lag: (intended-actual)/intended emit rate, 0-1.", func(s *DataplaneShard) float64 { return s.LagFrac }},
	{"nephelix_dataplane_shard_parks_total", "Cumulative park transitions of one source emitter shard.", func(s *DataplaneShard) float64 { return float64(s.Parks) }},
}

var dataplaneConsumerRows = []row[DataplaneConsumer]{
	{"nephelix_dataplane_consumer_parks_total", "Cumulative park transitions of a consumer vertex's live tasks.", func(c *DataplaneConsumer) float64 { return float64(c.Parks) }},
	{"nephelix_dataplane_consumer_wakes_total", "Cumulative wakes delivered to a consumer vertex's parked tasks: producer pushes and master requests.", func(c *DataplaneConsumer) float64 { return float64(c.Wakes) }},
}

var dataplaneWheelRows = []row[DataplaneWheel]{
	{"nephelix_dataplane_wheel_fires_total", "Cumulative deadline flush passes of all lanes: a lane's oldest buffered record reached its flush deadline.", func(w *DataplaneWheel) float64 { return float64(w.Fires) }},
}

var dataplanePoolRows = []row[DataplanePoolShard]{
	{"nephelix_dataplane_pool_hit_rate", "Batch-pool hit rate per pool shard over the interval.", func(p *DataplanePoolShard) float64 { return p.HitRate }},
}

// goSample is what one interval reads of the Go runtime (one
// ReadMemStats; set copies its subject, and MemStats is 6 KB).
type goSample struct {
	heapAlloc, gcPauseNs uint64
	gcs                  uint32
	goroutines           int
}

var goRows = []row[goSample]{
	{"nephelix_go_heap_alloc_bytes", "Go heap bytes allocated and still in use.", func(g *goSample) float64 { return float64(g.heapAlloc) }},
	{"nephelix_go_gc_pause_total_seconds", "Cumulative Go GC stop-the-world pause time.", func(g *goSample) float64 { return float64(g.gcPauseNs) / 1e9 }},
	{"nephelix_go_gcs_total", "Completed Go GC cycles.", func(g *goSample) float64 { return float64(g.gcs) }},
	{"nephelix_go_goroutines", "Live goroutines.", func(g *goSample) float64 { return float64(g.goroutines) }},
}

// declare registers every family against st: the row tables above, and the
// counters, histograms, sketches and event-driven gauges written where
// their event happens.
func (t *Telemetry) declare(st *ts.Store) {
	t.vertices = newGauges(st, vertexRows, func(v string) []string { return []string{v} }, "vertex")
	t.edges = newGauges(st, edgeRows, func(e model.EdgeKey) []string { return []string{e.String()} }, "edge")
	t.residuals = newGauges(st, residualRows, func(k ResidualKey) []string { return []string{k.Constraint, k.Vertex} }, "constraint", "vertex")
	t.tailFits = newGauges(st, tailFitRows, func(k tailKey) []string { return []string{k.vertex, quantileLabel(k.quantile)} }, "vertex", "q")
	t.slos = newGauges(st, sloRows, func(c string) []string { return []string{c} }, "constraint")
	t.dpEdges = newGauges(st, dataplaneEdgeRows, func(e string) []string { return []string{e} }, "edge")
	t.dpShards = newGauges(st, dataplaneShardRows, func(k shardKey) []string { return []string{k.vertex, k.task, strconv.Itoa(k.shard)} }, "vertex", "task", "shard")
	t.dpParking = newGauges(st, dataplaneConsumerRows, func(v string) []string { return []string{v} }, "vertex")
	t.dpWheel = newGauges[struct{}](st, dataplaneWheelRows, nil)
	t.dpPool = newGauges(st, dataplanePoolRows, func(shard int) []string { return []string{strconv.Itoa(shard)} }, "shard")
	t.goRuntime = newGauges[struct{}](st, goRows, nil)

	single := func(kind ts.Kind, name, help string) *ts.Series {
		f := st.Family(kind, name, help)
		return f.With()
	}
	t.intervals = single(ts.Counter, "nephelix_adjust_intervals_total", "Adjustment intervals observed.")
	t.decisions = single(ts.Counter, "nephelix_scaler_decisions_total", "Elastic-scaler decisions taken.")
	t.scaleUps = single(ts.Counter, "nephelix_scaler_scale_ups_total", "Scale-up actions applied.")
	t.scaleDowns = single(ts.Counter, "nephelix_scaler_scale_downs_total", "Scale-down actions applied.")
	t.holds = single(ts.Counter, "nephelix_scaler_holds_total", "Scaling intentions held by gating.")
	t.infeasible = single(ts.Counter, "nephelix_scaler_infeasible_total", "Constraints found infeasible.")
	t.ckptCommitted = single(ts.Counter, "nephelix_checkpoints_committed_total", "Barrier checkpoints committed.")
	t.ckptAborted = single(ts.Counter, "nephelix_checkpoints_aborted_total", "Barrier checkpoints aborted before commit.")
	t.replayed = single(ts.Counter, "nephelix_replayed_records_total", "Records re-emitted from source replay logs after a recovery.")
	t.deduped = single(ts.Counter, "nephelix_deduped_records_total", "Duplicate sink deliveries detected by the (source, offset) dedup tables.")
	t.ckptDuration = single(ts.Gauge, "nephelix_checkpoint_duration_seconds", "Injection-to-commit duration of the last committed checkpoint.")
	t.ckptInterval = single(ts.Gauge, "nephelix_checkpoint_interval_seconds", "Time between the last two checkpoint commits.")
	t.ckptStall = single(ts.Gauge, "nephelix_checkpoint_alignment_stall_seconds", "Worst barrier-alignment stall any task reported in the last committed checkpoint.")
	t.e2e = single(ts.Histogram, "nephelix_e2e_latency_seconds", "End-to-end latency of sampled records, source emission to sink.")
	t.e2eTail = single(ts.Sketch, "nephelix_e2e_latency_tail_seconds", "Quantile sketch over the sampled end-to-end latencies.")

	tailE2E := st.Family(ts.Gauge, "nephelix_tail_e2e_seconds", "End-to-end latency quantile per adjustment interval, read off the e2e sketch.", "q")
	t.tailE2E = make([]*ts.Series, len(ts.DefaultQuantiles))
	for i, q := range ts.DefaultQuantiles {
		t.tailE2E[i] = tailE2E.With(quantileLabel(q))
	}
	t.hopBatch = st.Family(ts.Sketch, "nephelix_hop_batch_delay_seconds", "Output-batch delay of sampled records per edge.", "edge")
	t.hopTransit = st.Family(ts.Sketch, "nephelix_hop_transit_seconds", "Ship-to-delivery transit time of sampled records per edge.", "edge")
	t.hopWait = st.Family(ts.Sketch, "nephelix_hop_queue_wait_seconds", "Consumer-side queue wait of sampled records per edge.", "edge")
	t.hopService = st.Family(ts.Sketch, "nephelix_hop_service_seconds", "UDF service time of sampled records per vertex.", "vertex")
	t.absResidual = st.Family(ts.Histogram, "nephelix_model_abs_residual_seconds", "Absolute prediction residual |measured-predicted| of the queue wait per scored cell.", "constraint", "vertex")
	t.waitRatio = st.Family(ts.Gauge, "nephelix_dataplane_wait_vs_predicted_ratio", "Measured ring wait over the Kingman-predicted queue wait of the consuming vertex.", "edge")
	t.sloViolations = st.Family(ts.Counter, "nephelix_slo_violations_total", "Met-to-violated SLO transitions per constraint.", "constraint")
}

// gauges is one row table resolved against a store: per subject key, one
// series per row. K is the comparable identity the scraper already holds
// for a subject, so after a key's first sight set formats no label and
// builds no series key.
type gauges[K comparable, S any] struct {
	rows     []row[S]
	families []ts.Family
	// labels renders a key's label values in the families' label order;
	// nil for an unlabelled table.
	labels func(K) []string
	series map[K][]*ts.Series
	// subject is set's copy of the subject being written: a pointer handed
	// to a func value escapes, so the rows read this heap-resident copy and
	// the scraper's own subjects stay on its stack.
	subject S
}

func newGauges[K comparable, S any](st *ts.Store, rows []row[S], labels func(K) []string, names ...string) gauges[K, S] {
	g := gauges[K, S]{rows: rows, families: make([]ts.Family, len(rows)), labels: labels}
	for i, r := range rows {
		g.families[i] = st.Family(ts.Gauge, r.name, r.help, names...)
	}
	return g
}

// set records every row's value of subject at time now. Callers
// serialize access (Telemetry.mu).
func (g *gauges[K, S]) set(now float64, subject S, key K) {
	series := g.series[key]
	if series == nil {
		var values []string
		if g.labels != nil {
			values = g.labels(key)
		}
		series = make([]*ts.Series, len(g.rows))
		for i := range g.families {
			series[i] = g.families[i].With(values...)
		}
		if g.series == nil {
			g.series = make(map[K][]*ts.Series)
		}
		g.series[key] = series
	}
	g.subject = subject
	for i, r := range g.rows {
		series[i].Set(now, r.value(&g.subject))
	}
}

// tailKey and shardKey identify a tail-fit cell and a source emitter lane.
type tailKey struct {
	vertex   string
	quantile float64
}

type shardKey struct {
	vertex, task string
	shard        int
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
