// Package qos implements the measurement plane of Section IV-B/IV-C: QoS
// reporters sample task and channel performance metrics (Table I), QoS
// managers aggregate them into partial summaries, and the master node
// merges partial summaries into the global summary that initializes the
// latency model.
//
// All latencies and times are float64 seconds; rates are events/second.
package qos

import (
	"fmt"
	"sort"
	"strings"

	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
)

// VertexStats holds the per-job-vertex entries of a summary: the averages,
// over the vertex's tasks, of the task-level measurements of Table I.
type VertexStats struct {
	// TaskLatency is the mean task latency l_jv (read-ready or read-write
	// depending on the vertex's UDF).
	TaskLatency float64
	// ServiceTimeMean and ServiceTimeCV describe the service time S_jv:
	// how long a task is busy with a data item.
	ServiceTimeMean float64
	ServiceTimeCV   float64
	// InterarrivalMean and InterarrivalCV describe the per-task data item
	// interarrival time A_jv.
	InterarrivalMean float64
	InterarrivalCV   float64
	// Parallelism is the degree of parallelism p_jv at measurement time.
	Parallelism int
	// FreshTasks is the number of tasks whose reporters delivered a
	// report within the last adjustment interval. When tasks crash their
	// stale history keeps contributing to the averages until it ages out,
	// but FreshTasks drops immediately — the scaler uses the gap between
	// FreshTasks and Parallelism to detect partial measurements.
	FreshTasks int
	// WaitWindow is the distribution of the queue waits the vertex's tasks
	// recorded during the last adjustment interval: the window the tail
	// model is fitted on and scored against. Nil for vertices under no
	// percentile constraint. Read-only.
	WaitWindow *sketch.Sketch
}

// ArrivalRate returns λ_jv = 1/Ā_jv, the mean per-task data item arrival
// rate, or 0 when no interarrival measurements exist.
func (s VertexStats) ArrivalRate() float64 {
	if s.InterarrivalMean <= 0 {
		return 0
	}
	return 1 / s.InterarrivalMean
}

// Utilization returns ρ_jv = λ_jv · S̄_jv. Values at or above 1 indicate a
// bottleneck (possibly measured during queue growth, see Section IV-E).
func (s VertexStats) Utilization() float64 {
	return s.ArrivalRate() * s.ServiceTimeMean
}

// EdgeStats holds the per-job-edge entries of a summary.
type EdgeStats struct {
	// ChannelLatency is the mean channel latency l_je: emission into the
	// channel until consumption from it.
	ChannelLatency float64
	// OutputBatchLatency is the mean output batch latency obl_je: the time
	// items wait in the output buffer before being shipped. It is always
	// at most ChannelLatency.
	OutputBatchLatency float64
}

// QueueWait returns the measured queue waiting time attributed to the
// consumer vertex: W = l_je − obl_je (Section IV-C2), floored at 0.
func (s EdgeStats) QueueWait() float64 {
	w := s.ChannelLatency - s.OutputBatchLatency
	if w < 0 {
		return 0
	}
	return w
}

// Summary is a global (or partial) summary: per-vertex and per-edge
// aggregated measurement data for the constrained parts of a job.
type Summary struct {
	Vertices map[string]VertexStats
	Edges    map[model.EdgeKey]EdgeStats
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{
		Vertices: make(map[string]VertexStats),
		Edges:    make(map[model.EdgeKey]EdgeStats),
	}
}

// Vertex returns the stats for a vertex and whether they are present.
func (s *Summary) Vertex(name string) (VertexStats, bool) {
	v, ok := s.Vertices[name]
	return v, ok
}

// Edge returns the stats for an edge and whether they are present.
func (s *Summary) Edge(key model.EdgeKey) (EdgeStats, bool) {
	e, ok := s.Edges[key]
	return e, ok
}

// Covers reports whether the summary has entries for every vertex and edge
// of the given sequence, which is required before the latency model can be
// initialized from it.
func (s *Summary) Covers(seq *model.Sequence) bool {
	for _, name := range seq.Vertices() {
		if _, ok := s.Vertices[name]; !ok {
			return false
		}
	}
	for _, key := range seq.Edges() {
		if _, ok := s.Edges[key]; !ok {
			return false
		}
	}
	return true
}

// SequenceCoverage returns the fraction of the sequence's task slots that
// have fresh QoS reports: Σ min(FreshTasks, Parallelism) over the
// sequence's vertices divided by Σ Parallelism. A vertex missing from the
// summary counts as fully stale, so a sequence whose reporters all died
// has coverage 0. The scaler holds scale-downs when coverage drops below
// its threshold (a crashed reporter must never trigger a
// latency-violating scale-down).
func (s *Summary) SequenceCoverage(seq *model.Sequence) float64 {
	total, fresh := 0, 0
	for _, name := range seq.Vertices() {
		v, ok := s.Vertices[name]
		if !ok || v.Parallelism <= 0 {
			// Unknown parallelism: treat the vertex as one fully stale
			// slot so missing vertices drag coverage down instead of
			// vanishing from the denominator.
			total++
			continue
		}
		total += v.Parallelism
		f := v.FreshTasks
		if f > v.Parallelism {
			f = v.Parallelism
		}
		fresh += f
	}
	if total == 0 {
		return 0
	}
	return float64(fresh) / float64(total)
}

// String renders the summary deterministically for logs and tests.
func (s *Summary) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Vertices))
	for n := range s.Vertices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := s.Vertices[n]
		fmt.Fprintf(&b, "%s: l=%.6f S=%.6f cS=%.3f A=%.6f cA=%.3f p=%d rho=%.3f\n",
			n, v.TaskLatency, v.ServiceTimeMean, v.ServiceTimeCV,
			v.InterarrivalMean, v.InterarrivalCV, v.Parallelism, v.Utilization())
	}
	keys := make([]model.EdgeKey, 0, len(s.Edges))
	for k := range s.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		e := s.Edges[k]
		fmt.Fprintf(&b, "%s: l=%.6f obl=%.6f W=%.6f\n", k, e.ChannelLatency, e.OutputBatchLatency, e.QueueWait())
	}
	return b.String()
}

// vertexPartial is the mergeable per-vertex accumulator of a partial
// summary: sums over the tasks a QoS manager observed. The global average
// of Equation 2 is the sum of per-task means divided by the task count.
type vertexPartial struct {
	taskCount           int
	freshCount          int
	sumTaskLatency      float64
	sumServiceMean      float64
	sumServiceCV        float64
	sumInterarrivalMean float64
	sumInterarrivalCV   float64
}

// edgePartial is the mergeable per-edge accumulator of a partial summary.
type edgePartial struct {
	channelCount      int
	sumChannelLatency float64
	sumBatchLatency   float64
}

// PartialSummary is the measurement aggregate a single QoS manager sends
// to the master node once per adjustment interval. Partial summaries are
// structurally identical to the global summary but cover only the tasks
// and channels assigned to their manager.
type PartialSummary struct {
	vertices map[string]*vertexPartial
	edges    map[model.EdgeKey]*edgePartial
	// waits holds the adjustment interval's queue-wait window per vertex
	// (see Manager.waits); nil when no task tracks queue waits.
	waits map[string]*sketch.Sketch
}

// NewPartialSummary returns an empty partial summary.
func NewPartialSummary() *PartialSummary {
	return &PartialSummary{
		vertices: make(map[string]*vertexPartial),
		edges:    make(map[model.EdgeKey]*edgePartial),
	}
}

// vertex returns the vertex's accumulator, creating it on first use.
func (p *PartialSummary) vertex(name string) *vertexPartial {
	vp := p.vertices[name]
	if vp == nil {
		vp = &vertexPartial{}
		p.vertices[name] = vp
	}
	return vp
}

// edge returns the edge's accumulator, creating it on first use.
func (p *PartialSummary) edge(key model.EdgeKey) *edgePartial {
	ep := p.edges[key]
	if ep == nil {
		ep = &edgePartial{}
		p.edges[key] = ep
	}
	return ep
}

func (vp *vertexPartial) addTask(taskLatency, serviceMean, serviceCV, interarrivalMean, interarrivalCV float64) {
	vp.taskCount++
	vp.sumTaskLatency += taskLatency
	vp.sumServiceMean += serviceMean
	vp.sumServiceCV += serviceCV
	vp.sumInterarrivalMean += interarrivalMean
	vp.sumInterarrivalCV += interarrivalCV
}

func (ep *edgePartial) addChannel(channelLatency, batchLatency float64) {
	ep.channelCount++
	ep.sumChannelLatency += channelLatency
	ep.sumBatchLatency += batchLatency
}

// Merge folds another partial summary into this one. The master node uses
// Merge to combine the partials of all QoS managers.
func (p *PartialSummary) Merge(o *PartialSummary) {
	for name, ovp := range o.vertices {
		vp := p.vertices[name]
		if vp == nil {
			cp := *ovp
			p.vertices[name] = &cp
			continue
		}
		vp.taskCount += ovp.taskCount
		vp.freshCount += ovp.freshCount
		vp.sumTaskLatency += ovp.sumTaskLatency
		vp.sumServiceMean += ovp.sumServiceMean
		vp.sumServiceCV += ovp.sumServiceCV
		vp.sumInterarrivalMean += ovp.sumInterarrivalMean
		vp.sumInterarrivalCV += ovp.sumInterarrivalCV
	}
	for key, oep := range o.edges {
		ep := p.edges[key]
		if ep == nil {
			cp := *oep
			p.edges[key] = &cp
			continue
		}
		ep.channelCount += oep.channelCount
		ep.sumChannelLatency += oep.sumChannelLatency
		ep.sumBatchLatency += oep.sumBatchLatency
	}
	for name, w := range o.waits {
		if p.waits == nil {
			p.waits = make(map[string]*sketch.Sketch, len(o.waits))
		}
		if cur := p.waits[name]; cur != nil {
			cur.Merge(w)
		} else {
			p.waits[name] = w.Clone() // o keeps its own
		}
	}
}

// Finalize converts the (merged) partial summary into a global summary.
// The parallelism map gives the authoritative current degree of
// parallelism per vertex; vertices without an entry fall back to the
// number of tasks observed.
func (p *PartialSummary) Finalize(parallelism map[string]int) *Summary {
	s := NewSummary()
	for name, vp := range p.vertices {
		if vp.taskCount == 0 {
			continue
		}
		n := float64(vp.taskCount)
		par := parallelism[name]
		if par <= 0 {
			par = vp.taskCount
		}
		s.Vertices[name] = VertexStats{
			TaskLatency:      vp.sumTaskLatency / n,
			ServiceTimeMean:  vp.sumServiceMean / n,
			ServiceTimeCV:    vp.sumServiceCV / n,
			InterarrivalMean: vp.sumInterarrivalMean / n,
			InterarrivalCV:   vp.sumInterarrivalCV / n,
			Parallelism:      par,
			FreshTasks:       vp.freshCount,
			WaitWindow:       p.waits[name],
		}
	}
	for key, ep := range p.edges {
		if ep.channelCount == 0 {
			continue
		}
		n := float64(ep.channelCount)
		s.Edges[key] = EdgeStats{
			ChannelLatency:     ep.sumChannelLatency / n,
			OutputBatchLatency: ep.sumBatchLatency / n,
		}
	}
	return s
}
