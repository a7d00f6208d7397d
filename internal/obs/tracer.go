package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nephelix/internal/metrics"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// Tracer head-samples records at the sources — deterministically, every
// Nth emission — and aggregates the per-hop decomposition of their
// end-to-end latency: output-batch delay, network transit and queue
// wait per edge, service time per vertex. The aggregates are the traced
// ground truth for the model-side estimates of Table I (channel latency
// l_je, output batch latency obl_je, queue wait W = l − obl, service
// time S̄_jv).
//
// A nil *Tracer is the disabled state: StartSpan returns nil and every
// Span method is safe on a nil receiver, so the instrumented runtimes
// pay only a nil check per record when tracing is off.
type Tracer struct {
	every uint64
	count atomic.Uint64 // source emissions observed

	mu       sync.Mutex
	spans    int64
	vertices map[string]*vertexTrace
	edges    map[string]*edgeTrace
	e2e      metrics.Welford
	e2eSk    *sketch.Sketch
}

type vertexTrace struct {
	service   metrics.Welford
	serviceSk *sketch.Sketch
}

type edgeTrace struct {
	batch     metrics.Welford // output-batch delay (obl)
	transit   metrics.Welford // ship → delivery
	queueWait metrics.Welford // delivery → service start (W)
	channel   metrics.Welford // batch + transit + queueWait (l)
	channelSk *sketch.Sketch  // tail decomposition of the channel latency
}

// NewTracer returns a tracer sampling every Nth source emission.
// every <= 0 disables sampling (StartSpan always returns nil).
func NewTracer(every int) *Tracer {
	tr := &Tracer{
		vertices: make(map[string]*vertexTrace),
		edges:    make(map[string]*edgeTrace),
		e2eSk:    sketch.NewDefault(),
	}
	if every > 0 {
		tr.every = uint64(every)
	}
	return tr
}

// Span is one traced record's handle. The zero of use is nil: unsampled
// records carry a nil span and every method is a no-op on it. Spans are
// shared by value-copied records (and their broadcast copies), so hop
// data is folded into the tracer immediately — a span that never
// reaches a sink (e.g. absorbed by a window) still contributed its
// hops.
type Span struct {
	tr    *Tracer
	start float64
}

// Start returns the span's start time in seconds (0 on nil), so span
// finishers can derive the end-to-end latency without re-tracking it.
func (s *Span) Start() float64 {
	if s == nil {
		return 0
	}
	return s.start
}

// StartSpan observes one source emission and returns a span when it is
// the tracer's next head sample, nil otherwise. now is the emission
// time in seconds.
func (tr *Tracer) StartSpan(now float64) *Span {
	if tr == nil || tr.every == 0 {
		return nil
	}
	if (tr.count.Add(1)-1)%tr.every != 0 {
		return nil
	}
	tr.mu.Lock()
	tr.spans++
	tr.mu.Unlock()
	return &Span{tr: tr, start: now}
}

// Hop records one edge traversal of the traced record into vertex: the
// record waited batchDelay in the producer's output buffer, spent
// transit on the wire, queueWait in the consumer's input queue, and
// service in the consumer's UDF.
func (s *Span) Hop(vertex, edge string, batchDelay, transit, queueWait, service float64) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	vt := tr.vertices[vertex]
	if vt == nil {
		vt = &vertexTrace{serviceSk: sketch.NewDefault()}
		tr.vertices[vertex] = vt
	}
	vt.service.Add(service)
	vt.serviceSk.Add(service)
	et := tr.edges[edge]
	if et == nil {
		et = &edgeTrace{channelSk: sketch.NewDefault()}
		tr.edges[edge] = et
	}
	et.batch.Add(batchDelay)
	et.transit.Add(transit)
	et.queueWait.Add(queueWait)
	et.channel.Add(batchDelay + transit + queueWait)
	et.channelSk.Add(batchDelay + transit + queueWait)
}

// Finish records the traced record's end-to-end latency at a sink.
func (s *Span) Finish(now float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.e2e.Add(now - s.start)
	s.tr.e2eSk.Add(now - s.start)
	s.tr.mu.Unlock()
}

// Emissions returns the number of source emissions observed.
func (tr *Tracer) Emissions() uint64 {
	if tr == nil {
		return 0
	}
	return tr.count.Load()
}

// Spans returns the number of spans started.
func (tr *Tracer) Spans() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans
}

// EndToEnd returns the count and mean of finished spans' end-to-end
// latencies.
func (tr *Tracer) EndToEnd() (count int64, mean float64) {
	if tr == nil {
		return 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.e2e.Count(), tr.e2e.Mean()
}

// VertexAttribution returns the traced sample count and mean service
// time of one vertex.
func (tr *Tracer) VertexAttribution(vertex string) (count int64, service float64) {
	if tr == nil {
		return 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if vt := tr.vertices[vertex]; vt != nil {
		return vt.service.Count(), vt.service.Mean()
	}
	return 0, 0
}

// EdgeAttribution returns the traced sample count and mean batch delay,
// transit, queue wait and channel latency of one edge (key format
// "source->target").
func (tr *Tracer) EdgeAttribution(edge string) (count int64, batch, transit, queueWait, channel float64) {
	if tr == nil {
		return 0, 0, 0, 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if et := tr.edges[edge]; et != nil {
		return et.channel.Count(), et.batch.Mean(), et.transit.Mean(), et.queueWait.Mean(), et.channel.Mean()
	}
	return 0, 0, 0, 0, 0
}

// AttributionReport renders the traced per-vertex/per-edge latency
// attribution, side by side with the QoS plane's model estimates from
// the summary (which may be nil). Deterministically ordered for logs
// and tests.
func (tr *Tracer) AttributionReport(s *qos.Summary) string {
	if tr == nil {
		return "tracing disabled\n"
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace attribution: %d/%d emissions sampled, %d spans finished, e2e mean %.6fs\n",
		tr.spans, tr.count.Load(), tr.e2e.Count(), tr.e2e.Mean())

	names := make([]string, 0, len(tr.vertices))
	for n := range tr.vertices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		vt := tr.vertices[n]
		fmt.Fprintf(&b, "vertex %s: n=%d service=%.6f", n, vt.service.Count(), vt.service.Mean())
		if s != nil {
			if vs, ok := s.Vertex(n); ok {
				fmt.Fprintf(&b, " [qos S=%.6f]", vs.ServiceTimeMean)
			}
		}
		b.WriteByte('\n')
	}

	edges := make([]string, 0, len(tr.edges))
	for e := range tr.edges {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	for _, e := range edges {
		et := tr.edges[e]
		fmt.Fprintf(&b, "edge %s: n=%d channel=%.6f batch=%.6f transit=%.6f wait=%.6f",
			e, et.channel.Count(), et.channel.Mean(), et.batch.Mean(), et.transit.Mean(), et.queueWait.Mean())
		if s != nil {
			if key, err := model.ParseEdgeKey(e); err == nil {
				if es, ok := s.Edge(key); ok {
					fmt.Fprintf(&b, " [qos l=%.6f obl=%.6f W=%.6f]",
						es.ChannelLatency, es.OutputBatchLatency, es.QueueWait())
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
