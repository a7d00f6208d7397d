package qos

import (
	"time"

	"nephelix/internal/model"
)

// secondsOf converts a duration to float64 seconds.
func secondsOf(d time.Duration) float64 { return d.Seconds() }

// SequenceLatencyEstimate is the decomposition of a constrained sequence's
// estimated mean latency, derived from a summary.
type SequenceLatencyEstimate struct {
	// TaskLatency is Σ l_jv over the sequence's vertices.
	TaskLatency float64
	// QueueWait is Σ (l_je − obl_je) over the sequence's edges: the time
	// spent waiting in input queues.
	QueueWait float64
	// BatchLatency is Σ obl_je: the time spent in output buffers due to
	// (deliberate) batching.
	BatchLatency float64
}

// Total returns the estimated mean sequence latency.
func (e SequenceLatencyEstimate) Total() float64 {
	return e.TaskLatency + e.QueueWait + e.BatchLatency
}

// EstimateSequenceLatency decomposes the sequence's mean latency using the
// summary's vertex and edge entries. The second return value is false if
// the summary does not cover the whole sequence.
func EstimateSequenceLatency(s *Summary, seq *model.Sequence) (SequenceLatencyEstimate, bool) {
	var est SequenceLatencyEstimate
	if !s.Covers(seq) {
		return est, false
	}
	for _, name := range seq.Vertices() {
		est.TaskLatency += s.Vertices[name].TaskLatency
	}
	for _, key := range seq.Edges() {
		e := s.Edges[key]
		est.QueueWait += e.QueueWait()
		est.BatchLatency += e.OutputBatchLatency
	}
	return est, true
}

// BatchingPolicy computes per-edge output-batching flush deadlines from
// latency constraints (the adaptive output batching of the authors' prior
// work, used here as a substrate). Per Section IV-F, a fraction of the
// remaining budget ℓ − Σ l_jv is reserved as queue-wait headroom
// (QueueWaitFraction) and the rest is spent on batching, spread evenly
// over the sequence's edges.
type BatchingPolicy struct {
	// QueueWaitFraction is the share of the non-task-latency budget
	// reserved for queue waiting time (Ŵ_js); the remainder is the
	// batching budget. A value outside (0, 1) means the paper's 0.2. The
	// scaler's default, core.DefaultStrategyConfig, reserves 0.3.
	QueueWaitFraction float64
}

// DefaultBatchingPolicy returns the policy with the paper's literal 20/80
// split.
func DefaultBatchingPolicy() BatchingPolicy {
	return BatchingPolicy{QueueWaitFraction: 0.2}
}

// QueueWaitLimit returns Ŵ_js = f·(ℓ − Σ l_jv) for the constraint, given
// the summary's task latencies (Algorithm 2, line 7). The result is
// floored at 0; a zero limit means the constraint cannot be met by
// controlling queueing alone.
func (p BatchingPolicy) QueueWaitLimit(s *Summary, c *model.Constraint) float64 {
	budget := secondsOf(c.Bound)
	for _, name := range c.Sequence.Vertices() {
		if v, ok := s.Vertices[name]; ok {
			budget -= v.TaskLatency
		}
	}
	if budget < 0 {
		budget = 0
	}
	f := p.QueueWaitFraction
	if f <= 0 || f >= 1 {
		f = 0.2
	}
	return f * budget
}

// TailVertices returns the vertices whose tasks must track queue waits:
// those in the sequence of a percentile constraint.
func TailVertices(constraints []*model.Constraint) map[string]bool {
	out := make(map[string]bool)
	for _, c := range constraints {
		if !c.IsPercentile() {
			continue
		}
		for _, name := range c.Sequence.Vertices() {
			out[name] = true
		}
	}
	return out
}
