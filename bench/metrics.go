package main

// The benchmark's catalogue: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root lists the same names; catalogue_test.go keeps the two
// in step. Names are permanent: later performance issues cite them.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"steady-instant", "open loop 200k rec/s, instant flush, round-robin: ring push/pop, park/wake and per-record gate/QoS cost are the whole latency; batching, wheel and scaler idle"},
	{"steady-adaptive", "open loop 200k rec/s, key-based, adaptive batching under a 20 ms constraint: flush wheel, batching controller and keyed gate buffers do the work; spinning shows as CPU"},
	{"saturate-fixed", "closed loop, key-based, fixed batching: throughput ceiling where gate routing, batch pool, handleBatch and QoS reporters dominate and rings carry 1/256 of the pushes"},
	{"sim-primetester", "virtual-time elastic PrimeTester on the Fig. 6 step load: simulator event loop at 100+ tasks plus qos merge and core decide every interval; quality is byte-deterministic"},
	{"sim-tweets-p99", "virtual-time TwitterSentiment, bursty trace, p99 constraints: tail fitter, tail bottleneck path, auto-created tracer, broadcast and timer vertices, two overlapping constraints"},
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is reported by every workload on the untraced pass. Engine
// workloads measure wall-clock quantities; simulator workloads report
// the simulated job's quality figures (virtual ms, virtual task-hours)
// next to the simulator's own speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"ontime_frac", "fraction", "higher", 0.08},
	{"fulfil_frac", "fraction", "higher", 0.10},
	{"cpu_s_per_mrec", "s/Mrec", "lower", 0.25},
	{"throughput_rec_s", "1/s", "higher", 0.25},
	{"task_hours", "task-h", "lower", 0.20},
}

// perLayer is reported by the traced pass. A metric a workload does
// not exercise (engine.* on a simulator workload, sim.* on an engine
// workload) reads 0 there. The micro rows (ring, qos, core, sketch,
// probe, obs) are workload-independent and measured on every traced
// pass.
var perLayer = []metricDef{
	// ring
	{Name: "ring.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.xfer_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.push_fail_frac", Unit: "fraction", Better: "lower"},
	// engine
	{Name: "engine.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.first_record_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gen_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.emit_block_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.hop1_transit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.work_service_us", Unit: "us", Better: "lower"},
	{Name: "engine.hop2_transit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.work_busy_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.sink_busy_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.edge_queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.edge_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ring_stall_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.ring_occupancy_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.pool_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "engine.allocs_per_rec", Unit: "1/rec", Better: "lower"},
	{Name: "engine.bytes_per_rec", Unit: "B/rec", Better: "lower"},
	{Name: "engine.wheel_fires_s", Unit: "1/s", Better: "lower"},
	{Name: "engine.wheel_parked_frac", Unit: "fraction", Better: "higher"},
	{Name: "engine.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.lost_records", Unit: "count", Better: "lower"},
	{Name: "engine.dropped_reports", Unit: "count", Better: "lower"},
	{Name: "engine.gomaxprocs1_rec_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "engine.unattributed_ns_per_rec", Unit: "ns", Better: "lower"},
	// qos
	{Name: "qos.reporter_record_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.reporter_flush_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.channel_record_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.manager_report_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.partial_summary_us", Unit: "us", Better: "lower"},
	{Name: "qos.merge_us", Unit: "us", Better: "lower"},
	{Name: "qos.merge_allocs", Unit: "count", Better: "lower"},
	{Name: "qos.batching_update_us", Unit: "us", Better: "lower"},
	// core
	{Name: "core.build_model_us", Unit: "us", Better: "lower"},
	{Name: "core.rebalance_us", Unit: "us", Better: "lower"},
	{Name: "core.rebalance_allocs", Unit: "count", Better: "lower"},
	{Name: "core.decide_us", Unit: "us", Better: "lower"},
	{Name: "core.decide_allocs", Unit: "count", Better: "lower"},
	{Name: "core.tail_observe_ns", Unit: "ns", Better: "lower"},
	// sketch and probe
	{Name: "sketch.add_ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.merge_us", Unit: "us", Better: "lower"},
	{Name: "sketch.quantile_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.record_ns", Unit: "ns", Better: "lower"},
	// sim
	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.wall_per_sim_s", Unit: "ms/s", Better: "lower"},
	{Name: "sim.allocs_per_item", Unit: "1/item", Better: "lower"},
	{Name: "sim.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.control_share_frac", Unit: "fraction", Better: "lower"},
	{Name: "sim.scale_ups", Unit: "count", Better: "lower"},
	{Name: "sim.scale_downs", Unit: "count", Better: "lower"},
	{Name: "sim.peak_parallelism", Unit: "count", Better: "lower"},
	{Name: "sim.dropped_items", Unit: "count", Better: "lower"},
	{Name: "sim.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.mean_cpu_util", Unit: "fraction", Better: "higher"},
	{Name: "sim.tail_fulfil_frac", Unit: "fraction", Better: "higher"},
	// obs
	{Name: "obs.tracer_span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.telemetry_interval_us", Unit: "us", Better: "lower"},
}

// metricSet is one pass's measurements, keyed by metric name. samples
// records how many observations stand behind a value (0 when the value
// is a single reading such as a counter).
type metricSet struct {
	values  map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: make(map[string]float64), samples: make(map[string]int)}
}

func (m *metricSet) set(name string, v float64, samples int) {
	m.values[name] = v
	m.samples[name] = samples
}
