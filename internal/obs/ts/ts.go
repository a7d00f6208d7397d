// Package ts is a typed in-memory time-series store. A Family declares
// one metric — kind, name, HELP text and label names — and its children
// are the counter, gauge, histogram or quantile-sketch series of one
// label-value tuple each, holding their recent points in fixed-capacity
// rings. The telemetry layer (internal/obs) scrapes the QoS plane into
// it every adjustment interval; /metrics, /timeseries and the SSE
// dashboard read it back out.
//
// The package depends only on internal/metrics/sketch (it must not
// import obs, core or qos) and follows the obs layer's nil-receiver
// contract: every method on a nil *Store or *Series, and on the zero
// Family a nil store declares, is a no-op, so a disabled telemetry path
// costs one pointer comparison and zero allocations.
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
	// Histogram series bucket observations against LatencyBuckets and
	// additionally keep the raw observations in the ring.
	Histogram
	// Sketch series feed observations into a DDSketch-style quantile
	// sketch (sketch.DefaultAlpha relative error) and additionally keep
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

// LatencyBuckets are the bucket upper bounds of every histogram series,
// for latencies in seconds: 100 µs to 10 s, roughly logarithmic.
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
	help   string
	key    string
	labels map[string]string
	kind   Kind

	mu     sync.Mutex
	points int     // ring capacity
	ring   []Point // allocated by the first push: a series never written costs no ring
	next   int
	full   bool

	total  float64        // counters: running sum
	counts []uint64       // histograms: per-bucket counts, counts[len(LatencyBuckets)] = overflow
	sum    float64        // histograms: sum of observations
	count  uint64         // histograms: number of observations
	sk     *sketch.Sketch // sketch series: the quantile sketch
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
		i := sort.SearchFloat64s(LatencyBuckets, v) // first bound >= v
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
		Help:   s.help,
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
		snap.Buckets = make([]Bucket, len(LatencyBuckets))
		var cum uint64
		for i, b := range LatencyBuckets {
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
	Name string `json:"name"`
	// Help is the family's HELP text, for the /metrics exposition only.
	Help   string            `json:"-"`
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
	mu     sync.RWMutex // guards byKey and every Family.children
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

// MaxLabels is the most label names a Family may declare.
const MaxLabels = 3

// Family is one declared metric: its kind, name, HELP text and label
// names. Its children — one Series per label-value tuple — are created
// by With. The zero value is a no-op family; With is safe for concurrent
// use.
type Family struct {
	st     *Store
	kind   Kind
	name   string
	help   string
	labels [MaxLabels]string // label names, in With's argument order
	n      int               // how many of them are declared

	// children caches the store's series by the value tuple itself, so a
	// lookup formats and allocates nothing; nil until the first child, and
	// for an unlabelled family, whose one series the store has by name.
	children map[[MaxLabels]string]*Series
}

// Family declares a metric of the given kind, name, HELP text and label
// names (at most MaxLabels; more is a programming error and panics). On a
// nil store it returns the no-op family. Declaring costs no allocation:
// the store learns of a family from its first child.
func (st *Store) Family(kind Kind, name, help string, labels ...string) Family {
	if len(labels) > MaxLabels {
		panic("ts: family " + name + " declares more than MaxLabels label names")
	}
	f := Family{st: st, kind: kind, name: name, help: help, n: len(labels)}
	copy(f.labels[:], labels)
	return f
}

// With returns the family's series for one tuple of label values, given
// in the order the label names were declared, creating it on first use.
// It returns nil (a no-op series) on a no-op family, when the number of
// values differs from the number of declared names, and when the identity
// already exists in the store with a different kind.
func (f *Family) With(values ...string) *Series {
	if f == nil || f.st == nil || len(values) != f.n {
		return nil
	}
	var tuple [MaxLabels]string
	copy(tuple[:], values)
	st := f.st
	st.mu.RLock()
	s := f.children[tuple]
	if f.n == 0 {
		s = st.byKey[f.name]
	}
	st.mu.RUnlock()
	if s != nil && s.kind == f.kind {
		return s
	}
	var labels map[string]string
	if f.n > 0 {
		labels = make(map[string]string, f.n)
		for i, v := range values {
			labels[f.labels[i]] = v
		}
	}
	key := SeriesKey(f.name, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	s = st.byKey[key]
	if s == nil {
		s = &Series{name: f.name, help: f.help, key: key, labels: labels, kind: f.kind, points: st.points}
		switch f.kind {
		case Histogram:
			s.counts = make([]uint64, len(LatencyBuckets)+1)
		case Sketch:
			s.sk = sketch.NewDefault()
		}
		st.byKey[key] = s
	}
	if s.kind != f.kind {
		return nil
	}
	if f.n > 0 {
		if f.children == nil {
			f.children = make(map[[MaxLabels]string]*Series)
		}
		f.children[tuple] = s
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
