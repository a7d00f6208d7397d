package obs

import (
	"sort"
	"sync"
)

// BackpressureState classifies one edge's data-plane condition for an
// adjustment interval.
type BackpressureState string

const (
	// BackpressureIdle: no pushes and an empty ring — the edge carried
	// nothing this interval.
	BackpressureIdle BackpressureState = "idle"
	// BackpressureProducerLimited: the edge flowed without stalls and
	// the ring stayed shallow — throughput is bounded upstream.
	BackpressureProducerLimited BackpressureState = "producer-limited"
	// BackpressureConsumerLimited: pushes stalled (or the ring ran
	// deep) while the consumer vertex was busy — the consumer's service
	// capacity is the bottleneck; scaling it is the remedy.
	BackpressureConsumerLimited BackpressureState = "consumer-limited"
	// BackpressureRingSaturated: pushes stalled while the consumer was
	// mostly idle — the ring drains faster than its producer, woken at
	// half of it, refills it (park/wake latency, or a ring too shallow
	// to bridge it), so adding consumer parallelism would not help.
	BackpressureRingSaturated BackpressureState = "ring-saturated"
)

// backpressured reports whether s is one of the two states that
// constitute a backpressure episode.
func backpressured(s BackpressureState) bool {
	return s == BackpressureConsumerLimited || s == BackpressureRingSaturated
}

// The classification thresholds: an edge is backpressured when its
// stall fraction exceeds bpStallFrac, or its ring occupancy fraction
// reaches bpOccupancyFrac even without observed stalls; a consumer at
// least bpBusyFrac busy is then the culprit, below it the ring itself.
// An engine stall is one producer park, and its ring holds at most 8
// batches and wakes the producer at half of them, so a ring kept full
// stalls once per ≤ 4 pushes: a stall fraction ≥ 0.2.
const (
	bpStallFrac     = 0.05
	bpOccupancyFrac = 0.75
	bpBusyFrac      = 0.5
)

// BackpressureStatus is one edge's current classification plus episode
// history.
type BackpressureStatus struct {
	Edge    string            `json:"edge"`
	State   BackpressureState `json:"state"`
	Culprit string            `json:"culprit,omitempty"`
	// Since is when the current backpressure episode began (0 outside
	// an episode); Onsets counts episodes so far.
	Since  float64 `json:"since,omitempty"`
	Onsets int64   `json:"onsets"`
	// Intervals counts adjustment intervals spent in each state.
	Intervals map[string]int64 `json:"intervals"`
}

// bpCell is one edge's tracked state.
type bpCell struct {
	state     BackpressureState
	culprit   string
	since     float64
	onsets    int64
	intervals map[string]int64
}

// BackpressureMonitor classifies every edge's backpressure condition
// each adjustment interval from the sampled stall rate, ring occupancy
// and consumer busy fraction, and emits backpressure_onset /
// backpressure_cleared flight-recorder events with the attributed
// culprit vertex on episode transitions. All methods are nil-safe.
type BackpressureMonitor struct {
	mu    sync.Mutex
	edges map[string]*bpCell
}

// NewBackpressureMonitor returns an empty monitor.
func NewBackpressureMonitor() *BackpressureMonitor {
	return &BackpressureMonitor{edges: make(map[string]*bpCell)}
}

// classify maps one edge's interval sample onto a state + culprit.
func classify(e DataplaneEdge) (BackpressureState, string) {
	if e.StallFrac > bpStallFrac || e.OccupancyFrac >= bpOccupancyFrac {
		if e.ConsumerBusy >= bpBusyFrac {
			return BackpressureConsumerLimited, e.Consumer
		}
		return BackpressureRingSaturated, e.Consumer
	}
	if e.Pushes == 0 || (e.PushRate <= 0 && e.Occupancy == 0) {
		return BackpressureIdle, ""
	}
	return BackpressureProducerLimited, e.Producer
}

// Observe classifies one interval's edge samples. Transitions into a
// backpressured state record a KindBackpressureOnset event on rec (nil
// ok), transitions out a KindBackpressureCleared event carrying the
// episode duration. A switch between the two backpressured states
// updates the culprit without starting a new episode. Returns every
// tracked edge's status sorted by edge name.
func (m *BackpressureMonitor) Observe(now float64, edges []DataplaneEdge, rec *Recorder) []BackpressureStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range edges {
		cell := m.edges[e.Edge]
		if cell == nil {
			cell = &bpCell{state: BackpressureIdle, intervals: make(map[string]int64)}
			m.edges[e.Edge] = cell
		}
		state, culprit := classify(e)
		cell.intervals[string(state)]++
		wasBP, isBP := backpressured(cell.state), backpressured(state)
		switch {
		case isBP && !wasBP:
			cell.since = now
			cell.onsets++
			rec.RecordLifecycle(now, KindBackpressureOnset, Lifecycle{
				Edge:          e.Edge,
				Vertex:        culprit,
				State:         string(state),
				OccupancyFrac: jsonSafe(e.OccupancyFrac),
				StallFrac:     jsonSafe(e.StallFrac),
			})
		case !isBP && wasBP:
			rec.RecordLifecycle(now, KindBackpressureCleared, Lifecycle{
				Edge:            e.Edge,
				Vertex:          cell.culprit,
				State:           string(state),
				DurationSeconds: now - cell.since,
			})
			cell.since = 0
		}
		cell.state = state
		cell.culprit = culprit
	}
	out := make([]BackpressureStatus, 0, len(m.edges))
	for name, cell := range m.edges {
		iv := make(map[string]int64, len(cell.intervals))
		for k, v := range cell.intervals {
			iv[k] = v
		}
		out = append(out, BackpressureStatus{
			Edge:      name,
			State:     cell.state,
			Culprit:   cell.culprit,
			Since:     cell.since,
			Onsets:    cell.onsets,
			Intervals: iv,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Edge < out[j].Edge })
	return out
}

// Snapshot returns every tracked edge's status sorted by edge name
// without advancing the monitor. Nil-safe.
func (m *BackpressureMonitor) Snapshot() []BackpressureStatus {
	if m == nil {
		return nil
	}
	return m.Observe(0, nil, nil)
}
