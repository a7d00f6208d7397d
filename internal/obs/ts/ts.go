// Package ts is a typed in-memory time-series store: named counter,
// gauge, histogram and quantile-sketch series holding their recent
// points in fixed-capacity rings. The telemetry layer (internal/obs)
// scrapes the QoS plane into it every adjustment interval; the
// /timeseries endpoint and the SSE dashboard read it back out.
//
// The package depends only on internal/metrics/sketch (it must not
// import obs, core or qos) and follows the obs layer's nil-receiver
// contract: every method on a nil *Store or nil *Series is a no-op, so
// a disabled telemetry path costs one pointer comparison and zero
// allocations.
package ts

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"nephelix/internal/metrics/sketch"
)

// Kind discriminates the series types.
type Kind uint8

const (
	// Counter series accumulate monotonically; each ring point stores
	// the running total at record time.
	Counter Kind = iota + 1
	// Gauge series store the sampled value per point.
	Gauge
	// Histogram series bucket observations against fixed upper bounds
	// and additionally keep the raw observations in the ring.
	Histogram
	// Sketch series feed observations into a DDSketch-style quantile
	// sketch with a fixed relative-error bound and additionally keep
	// the raw observations in the ring. They render as Prometheus
	// summaries.
	Sketch
)

// String returns the kind name used in JSON snapshots.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	case Sketch:
		return "sketch"
	default:
		return "unknown"
	}
}

// DefaultQuantiles are the quantiles exposed in sketch snapshots and
// Prometheus summary lines.
var DefaultQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// DefaultPoints is the ring capacity used when NewStore is given a
// non-positive one.
const DefaultPoints = 512

// LatencyBuckets are the default histogram bounds for latencies in
// seconds: 100 µs to 10 s, roughly logarithmic.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Point is one recorded sample: T is the record time in seconds (the
// caller's clock: virtual time in the simulator, wall time in the
// engine), V the value.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is one named time series. All methods are safe for concurrent
// use and safe on a nil receiver.
type Series struct {
	name   string
	key    string
	labels map[string]string
	kind   Kind

	mu     sync.Mutex
	points int     // ring capacity
	ring   []Point // allocated by the first push: a series never written costs no ring
	next   int
	full   bool

	total  float64        // counters: running sum
	bounds []float64      // histograms: bucket upper bounds (sorted)
	counts []uint64       // histograms: per-bucket counts, counts[len(bounds)] = overflow
	sum    float64        // histograms: sum of observations
	count  uint64         // histograms: number of observations
	sk     *sketch.Sketch // sketch series: the quantile sketch
}

// Name returns the series name ("" on nil).
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Add increments a counter series by delta at time t. It is a no-op on
// nil receivers and non-counter series.
func (s *Series) Add(t, delta float64) {
	if s == nil || s.kind != Counter {
		return
	}
	s.mu.Lock()
	s.total += delta
	s.push(t, s.total)
	s.mu.Unlock()
}

// Set records a gauge sample at time t. It is a no-op on nil receivers
// and non-gauge series.
func (s *Series) Set(t, v float64) {
	if s == nil || s.kind != Gauge {
		return
	}
	s.mu.Lock()
	s.push(t, v)
	s.mu.Unlock()
}

// Observe records one observation at time t into a histogram or sketch
// series. It is a no-op on nil receivers and other kinds.
func (s *Series) Observe(t, v float64) {
	if s == nil {
		return
	}
	switch s.kind {
	case Histogram:
		s.mu.Lock()
		i := sort.SearchFloat64s(s.bounds, v) // first bound >= v
		s.counts[i]++
		s.sum += v
		s.count++
		s.push(t, v)
		s.mu.Unlock()
	case Sketch:
		s.mu.Lock()
		s.sk.Add(v)
		s.push(t, v)
		s.mu.Unlock()
	}
}

// Quantile evaluates a sketch series at quantile q (0 on nil receivers
// and non-sketch series).
func (s *Series) Quantile(q float64) float64 {
	if s == nil || s.kind != Sketch {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sk.Quantile(q)
}

// SketchCount returns the number of observations a sketch series has
// recorded (0 on nil receivers and non-sketch series).
func (s *Series) SketchCount() uint64 {
	if s == nil || s.kind != Sketch {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sk.Count()
}

// CountAbove returns the number of observations of a sketch series
// above x, within the sketch's relative accuracy (0 on nil receivers
// and non-sketch series). Used for SLO bad-event accounting.
func (s *Series) CountAbove(x float64) uint64 {
	if s == nil || s.kind != Sketch {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sk.CountAbove(x)
}

// SketchClone returns an independent copy of a sketch series' sketch
// for offline analysis or cross-run pooling (nil on nil receivers and
// non-sketch series).
func (s *Series) SketchClone() *sketch.Sketch {
	if s == nil || s.kind != Sketch {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sk.Clone()
}

// Value returns the latest recorded value: the running total for
// counters, the last sample otherwise (0 when empty or nil).
func (s *Series) Value() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kind == Counter {
		return s.total
	}
	if !s.full && s.next == 0 {
		return 0
	}
	last := s.next - 1
	if last < 0 {
		last = len(s.ring) - 1
	}
	return s.ring[last].V
}

// push appends to the ring, overwriting the oldest point when full.
// Callers hold s.mu.
func (s *Series) push(t, v float64) {
	if s.ring == nil {
		s.ring = make([]Point, s.points)
	}
	s.ring[s.next] = Point{T: t, V: v}
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
}

// snapshot renders the series under its lock.
func (s *Series) snapshot(since float64, maxPoints int) SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SeriesSnapshot{
		Name:   s.name,
		Labels: s.labels,
		Kind:   s.kind.String(),
	}
	n := s.next
	if s.full {
		n = len(s.ring)
	}
	pts := make([]Point, 0, n)
	start := 0
	if s.full {
		start = s.next // oldest point
	}
	for i := 0; i < n; i++ {
		p := s.ring[(start+i)%len(s.ring)]
		if p.T >= since {
			pts = append(pts, p)
		}
	}
	if maxPoints > 0 && len(pts) > maxPoints {
		pts = pts[len(pts)-maxPoints:]
	}
	snap.Points = pts
	switch s.kind {
	case Counter:
		snap.Total = s.total
	case Histogram:
		snap.Sum = s.sum
		snap.Count = s.count
		// Cumulative finite buckets; the implicit +Inf bucket is Count.
		snap.Buckets = make([]Bucket, len(s.bounds))
		var cum uint64
		for i, b := range s.bounds {
			cum += s.counts[i]
			snap.Buckets[i] = Bucket{LE: b, Count: cum}
		}
	case Sketch:
		snap.Sum = s.sk.Sum()
		snap.Count = s.sk.Count()
		snap.Alpha = s.sk.Alpha()
		snap.Quantiles = make([]QuantileValue, len(DefaultQuantiles))
		for i, q := range DefaultQuantiles {
			snap.Quantiles[i] = QuantileValue{Quantile: q, Value: s.sk.Quantile(q)}
		}
	}
	return snap
}

// Bucket is one cumulative histogram bucket: Count observations were
// <= LE. The implicit +Inf bucket equals the snapshot's Count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// QuantileValue is one evaluated quantile of a sketch series.
type QuantileValue struct {
	Quantile float64 `json:"q"`
	Value    float64 `json:"v"`
}

// SeriesSnapshot is the JSON form of one series.
type SeriesSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Points []Point           `json:"points"`
	// Total is the counter running sum (counters only).
	Total float64 `json:"total,omitempty"`
	// Sum, Count and Buckets describe histograms; Sum, Count, Alpha
	// and Quantiles describe sketches (Sum is the sketch's
	// deterministic estimate).
	Sum       float64         `json:"sum,omitempty"`
	Count     uint64          `json:"count,omitempty"`
	Buckets   []Bucket        `json:"buckets,omitempty"`
	Alpha     float64         `json:"alpha,omitempty"`
	Quantiles []QuantileValue `json:"quantiles,omitempty"`
}

// Store holds the series of one run, keyed by name plus labels. The
// zero value is not usable; NewStore returns a ready store and a nil
// *Store degrades every method to a no-op.
type Store struct {
	mu     sync.RWMutex
	points int
	byKey  map[string]*Series
}

// NewStore returns a store whose series keep the last pointsPerSeries
// points each (DefaultPoints when <= 0).
func NewStore(pointsPerSeries int) *Store {
	if pointsPerSeries <= 0 {
		pointsPerSeries = DefaultPoints
	}
	return &Store{points: pointsPerSeries, byKey: make(map[string]*Series)}
}

// Counter returns the counter series for name+labels, creating it on
// first use. Returns nil (a no-op series) on a nil store or when the
// identity already exists with a different kind.
func (st *Store) Counter(name string, labels map[string]string) *Series {
	return st.series(name, labels, Counter, nil, 0)
}

// Gauge returns the gauge series for name+labels, creating it on first
// use. Nil-store and kind-mismatch behave as in Counter.
func (st *Store) Gauge(name string, labels map[string]string) *Series {
	return st.series(name, labels, Gauge, nil, 0)
}

// Histogram returns the histogram series for name+labels, creating it
// with the given bucket upper bounds (sorted copy; LatencyBuckets when
// empty) on first use. Nil-store and kind-mismatch behave as in Counter.
func (st *Store) Histogram(name string, labels map[string]string, bounds []float64) *Series {
	return st.series(name, labels, Histogram, bounds, 0)
}

// SketchSeries returns the quantile-sketch series for name+labels,
// creating it with relative accuracy alpha (sketch.DefaultAlpha when
// non-positive) on first use. Nil-store and kind-mismatch behave as in
// Counter.
func (st *Store) SketchSeries(name string, labels map[string]string, alpha float64) *Series {
	return st.series(name, labels, Sketch, nil, alpha)
}

func (st *Store) series(name string, labels map[string]string, kind Kind, bounds []float64, alpha float64) *Series {
	if st == nil {
		return nil
	}
	key := SeriesKey(name, labels)
	st.mu.RLock()
	s := st.byKey[key]
	st.mu.RUnlock()
	if s == nil {
		st.mu.Lock()
		s = st.byKey[key]
		if s == nil {
			s = &Series{
				name:   name,
				key:    key,
				labels: copyLabels(labels),
				kind:   kind,
				points: st.points,
			}
			switch kind {
			case Histogram:
				if len(bounds) == 0 {
					bounds = LatencyBuckets
				}
				s.bounds = append([]float64(nil), bounds...)
				sort.Float64s(s.bounds)
				s.counts = make([]uint64, len(s.bounds)+1)
			case Sketch:
				if alpha <= 0 {
					alpha = sketch.DefaultAlpha
				}
				s.sk = sketch.New(alpha)
			}
			st.byKey[key] = s
		}
		st.mu.Unlock()
	}
	if s.kind != kind {
		return nil
	}
	return s
}

// Len returns the number of series (0 on nil).
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.byKey)
}

// Snapshot renders every series, sorted by identity key so repeated
// scrapes and JSON dumps are deterministic.
func (st *Store) Snapshot() []SeriesSnapshot {
	return st.Query("", 0, 0)
}

// Query renders the series whose name starts with prefix, keeping only
// points with T >= since and at most the newest maxPoints points per
// series (0 = unlimited). The result is sorted by identity key. A nil
// store returns nil.
func (st *Store) Query(prefix string, since float64, maxPoints int) []SeriesSnapshot {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	matched := make([]*Series, 0, len(st.byKey))
	for _, s := range st.byKey {
		if prefix == "" || strings.HasPrefix(s.name, prefix) {
			matched = append(matched, s)
		}
	}
	st.mu.RUnlock()
	sort.Slice(matched, func(i, j int) bool { return matched[i].key < matched[j].key })
	out := make([]SeriesSnapshot, len(matched))
	for i, s := range matched {
		out[i] = s.snapshot(since, maxPoints)
	}
	return out
}

// SeriesKey builds the collision-free identity key of a series: the
// name followed by the sorted labels, with names and values quoted so
// no choice of label content can alias another identity.
func SeriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(k))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// copyLabels snapshots the label map so callers may reuse theirs.
func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}
