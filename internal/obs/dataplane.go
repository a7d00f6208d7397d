package obs

// The data-plane X-ray: both runtimes sample their queueing layer once
// per adjustment interval — ring counters, emitter pacing, consumer
// parking, deadline-flush and batch-pool state in the engine; the mirrored
// queue-depth walk in the simulator — into a DataplaneSnapshot.
// Telemetry.ObserveDataplane classifies each edge's backpressure state,
// publishes the gauges, and keeps the latest snapshot for /dataplane and
// the SSE dashboard.

// DataplaneEdge is one job edge's sampled data-plane state, aggregated
// over every producer-lane ring feeding the edge. Counter fields
// (Pushes, PushFails, Pops) are cumulative batch counts; the *Rate and
// *Frac fields are the sampler's per-interval derivations the
// backpressure monitor classifies from, so the engine and the
// simulator feed the same heuristic.
type DataplaneEdge struct {
	Edge     string `json:"edge"`
	Producer string `json:"producer"`
	Consumer string `json:"consumer"`
	// Rings is the number of producer-lane rings sampled (engine) or
	// channels mirrored (sim) for this edge.
	Rings int `json:"rings"`
	// Occupancy and Capacity sum current depth and capacity across the
	// edge's rings; HighWater is the worst single-ring high-water mark.
	Occupancy int `json:"occupancy"`
	Capacity  int `json:"capacity"`
	HighWater int `json:"high_water"`

	Pushes    uint64 `json:"pushes"`
	PushFails uint64 `json:"push_fails"`
	Pops      uint64 `json:"pops"`

	// Interval derivations (per second / fractions in [0,1]).
	PushRate  float64 `json:"push_rate"`
	PopRate   float64 `json:"pop_rate"`
	StallRate float64 `json:"stall_rate"`
	// StallFrac is stalls (PushFails: in the engine one per producer
	// park) over pushes plus stalls this interval.
	StallFrac float64 `json:"stall_frac"`
	// OccupancyFrac is Occupancy/Capacity at sample time.
	OccupancyFrac float64 `json:"occupancy_frac"`
	// ConsumerBusy is the consumer vertex's busy fraction this interval.
	ConsumerBusy float64 `json:"consumer_busy"`
	// RingWaitSeconds estimates the time a batch spends queued via
	// Little's law (occupancy / pop rate); 0 when nothing popped.
	RingWaitSeconds float64 `json:"ring_wait_seconds"`

	// State and Culprit are filled by the BackpressureMonitor.
	State   string `json:"state,omitempty"`
	Culprit string `json:"culprit,omitempty"`
}

// DataplaneSource is one source task's pacing state.
type DataplaneSource struct {
	Vertex  string `json:"vertex"`
	Task    string `json:"task"`
	Emitted int64  `json:"emitted"`
	// ActualRate is records/s emitted this interval; IntendedRate the
	// schedule's per-task share. LagFrac is (intended−actual)/intended
	// clamped to [0,1] — a persistently lagging source cannot keep up
	// with its pacing target (downstream backpressure or CPU steal).
	ActualRate   float64 `json:"actual_rate"`
	IntendedRate float64 `json:"intended_rate"`
	LagFrac      float64 `json:"lag_frac"`
	Parks        int64   `json:"parks"`
	Wakes        int64   `json:"wakes"`
}

// DataplaneConsumer is one consumer vertex's idle behaviour: park
// transitions of its tasks and wakes delivered to them while parked —
// producer pushes, flush-deadline fires, master requests — summed over
// its live tasks (cumulative). In the engine they include a task's parks
// on a full out-ring and the wakes that end them, which its out-edges'
// PushFails count apart (one per stall), so the idle parks are Parks
// less those stalls.
type DataplaneConsumer struct {
	Vertex string `json:"vertex"`
	Parks  int64  `json:"parks"`
	Wakes  int64  `json:"wakes"`
}

// DataplaneWheel is the engine's deadline-flush accounting. It keeps the
// name of the flush-timer wheel it replaced: each lane is now its own
// flush timer.
type DataplaneWheel struct {
	// Fires counts deadline flush passes, summed over every lane: a lane
	// found its oldest buffered record past its flush deadline.
	Fires int64 `json:"fires"`
	// ParkedFrac is retired with the wheel goroutine and stays zero. It
	// remains because the benchmark harness reads it; the harness change
	// that drops its wheel rows deletes it.
	ParkedFrac float64 `json:"parked_frac"`
}

// DataplanePoolShard is one batch-pool shard's hit/miss state.
type DataplanePoolShard struct {
	Shard  int   `json:"shard"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// HitRate is hits/(hits+misses) over the interval (1 when idle).
	HitRate float64 `json:"hit_rate"`
}

// DataplaneSnapshot is one interval's full data-plane sample — the
// /dataplane payload and the dashboard's backpressure panel input.
type DataplaneSnapshot struct {
	// At is seconds since the run started (virtual time in the sim).
	At float64 `json:"at"`
	// Layer is "engine" or "sim".
	Layer string `json:"layer"`
	// IntervalSeconds is the sampling interval the rates were derived
	// over.
	IntervalSeconds float64 `json:"interval_seconds"`

	Edges     []DataplaneEdge      `json:"edges"`
	Sources   []DataplaneSource    `json:"sources,omitempty"`
	Consumers []DataplaneConsumer  `json:"consumers,omitempty"`
	Wheel     *DataplaneWheel      `json:"wheel,omitempty"`
	Pool      []DataplanePoolShard `json:"pool,omitempty"`

	// Backpressure is the monitor's per-edge classification, sorted by
	// edge name.
	Backpressure []BackpressureStatus `json:"backpressure"`
}

// TaskBusy is one task's cumulative busy time, as a scraper reads it.
type TaskBusy struct {
	Vertex  string
	Task    string
	Seconds float64
}

// DataplaneRates turns the cumulative counters both runtimes' scrapers
// read into the per-interval rates and fractions of a DataplaneEdge. It
// keeps the previous sample; rates are the difference of consecutive
// cumulative samples over the elapsed interval, with negative deltas
// clamped to zero (rings and tasks come and go under scaling and
// churn). The zero value is ready to use.
type DataplaneRates struct {
	prevEdges map[string]edgeTotals
	// prevBusy and nowBusy (by TaskBusy.Task) swap roles every Derive;
	// busyDelta and tasks (by vertex) are its scratch.
	prevBusy, nowBusy map[string]float64
	busyDelta         map[string]float64
	tasks             map[string]int
}

type edgeTotals struct{ pushes, fails, pops uint64 }

// Derive fills PushRate, PopRate, StallRate, StallFrac, OccupancyFrac,
// RingWaitSeconds and ConsumerBusy of every edge from its cumulative
// Pushes/PushFails/Pops, its Occupancy and Capacity, and the busy
// totals of the consumer vertex's tasks (a task seen for the first time
// contributes its whole total).
func (r *DataplaneRates) Derive(edges []DataplaneEdge, busy []TaskBusy, interval float64) {
	if r.prevEdges == nil {
		r.prevEdges = make(map[string]edgeTotals)
		r.prevBusy, r.nowBusy = make(map[string]float64), make(map[string]float64)
		r.busyDelta, r.tasks = make(map[string]float64), make(map[string]int)
	}
	busyNow, busyDelta, tasks := r.nowBusy, r.busyDelta, r.tasks
	clear(busyNow)
	clear(busyDelta)
	clear(tasks)
	for _, b := range busy {
		busyNow[b.Task] = b.Seconds
		d := b.Seconds
		if prev, ok := r.prevBusy[b.Task]; ok && b.Seconds >= prev {
			d -= prev
		}
		busyDelta[b.Vertex] += d
		tasks[b.Vertex]++
	}
	r.prevBusy, r.nowBusy = busyNow, r.prevBusy
	for i := range edges {
		e := &edges[i]
		prev := r.prevEdges[e.Edge]
		r.prevEdges[e.Edge] = edgeTotals{e.Pushes, e.PushFails, e.Pops}
		e.PushRate = counterRate(e.Pushes, prev.pushes, interval)
		e.PopRate = counterRate(e.Pops, prev.pops, interval)
		e.StallRate = counterRate(e.PushFails, prev.fails, interval)
		if attempts := e.PushRate + e.StallRate; attempts > 0 {
			e.StallFrac = e.StallRate / attempts
		}
		if e.Capacity > 0 {
			e.OccupancyFrac = float64(e.Occupancy) / float64(e.Capacity)
		}
		if e.PopRate > 0 {
			e.RingWaitSeconds = float64(e.Occupancy) / e.PopRate
		}
		if n := tasks[e.Consumer]; n > 0 {
			e.ConsumerBusy = min(1, busyDelta[e.Consumer]/(interval*float64(n)))
		}
	}
}

// counterRate is the clamped per-second delta of a cumulative counter.
func counterRate(cur, prev uint64, interval float64) float64 {
	if cur <= prev || interval <= 0 {
		return 0
	}
	return float64(cur-prev) / interval
}

// backpressureStateValue maps a classification onto the numeric gauge
// nephelix_dataplane_backpressure_state (0 idle, 1 producer-limited,
// 2 consumer-limited, 3 ring-saturated).
func backpressureStateValue(s BackpressureState) float64 {
	switch s {
	case BackpressureProducerLimited:
		return 1
	case BackpressureConsumerLimited:
		return 2
	case BackpressureRingSaturated:
		return 3
	default:
		return 0
	}
}

// ObserveDataplane folds one interval's data-plane sample: classify
// every edge's backpressure state (emitting onset/cleared events on
// rec, which may be nil), publish the gauges, cross-check measured ring
// wait against the residual monitor's last Kingman predictions, and
// retain the snapshot for /dataplane. Nil-safe.
func (t *Telemetry) ObserveDataplane(snap DataplaneSnapshot, rec *Recorder) {
	if t == nil {
		return
	}
	statuses := t.bp.Observe(snap.At, snap.Edges, rec)
	byEdge := make(map[string]BackpressureStatus, len(statuses))
	for _, st := range statuses {
		byEdge[st.Edge] = st
	}
	for i := range snap.Edges {
		if st, ok := byEdge[snap.Edges[i].Edge]; ok {
			snap.Edges[i].State = string(st.State)
			snap.Edges[i].Culprit = st.Culprit
		}
	}
	snap.Backpressure = statuses

	now := snap.At
	t.mu.Lock()
	for _, de := range snap.Edges {
		t.dpEdges.set(now, de, de.Edge)
	}
	for _, src := range snap.Sources {
		t.dpSources.set(now, src, sourceKey{src.Vertex, src.Task})
	}
	for _, c := range snap.Consumers {
		t.dpParking.set(now, c, c.Vertex)
	}
	if snap.Wheel != nil {
		t.dpWheel.set(now, *snap.Wheel, struct{}{})
	}
	for _, ps := range snap.Pool {
		t.dpPool.set(now, ps, ps.Shard)
	}
	t.dpLast = &snap
	t.mu.Unlock()

	t.crossCheckWaits(now, snap.Edges)
}

// crossCheckWaits compares the data-plane-measured ring wait per edge
// against the Kingman queue-wait prediction the residual monitor last
// scored for the edge's consumer vertex, publishing the ratio as a
// gauge. A ratio persistently far from 1 means the model and the rings
// disagree about where time is spent — the same drift the residual
// monitor tracks, but measured at the ring rather than the QoS layer.
func (t *Telemetry) crossCheckWaits(now float64, edges []DataplaneEdge) {
	stats := t.res.Snapshot()
	if len(stats) == 0 {
		return
	}
	predicted := make(map[string]float64, len(stats))
	for _, rs := range stats {
		if rs.LastPredicted > 0 {
			predicted[rs.Vertex] = rs.LastPredicted
		}
	}
	for i := range edges {
		de := &edges[i]
		if p, ok := predicted[de.Consumer]; ok && de.RingWaitSeconds > 0 {
			t.waitRatio.With(de.Edge).Set(now, de.RingWaitSeconds/p)
		}
	}
}

// Dataplane returns the most recent snapshot (nil before the first
// ObserveDataplane or when telemetry is disabled).
func (t *Telemetry) Dataplane() *DataplaneSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dpLast
}

// Backpressure exposes the monitor (nil when disabled) so experiments
// can assert on episode counts.
func (t *Telemetry) Backpressure() *BackpressureMonitor {
	if t == nil {
		return nil
	}
	return t.bp
}
