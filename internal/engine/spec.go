package engine

import (
	"fmt"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/workload"
)

// Context is the per-task API a UDF sees. Each task carries its own
// Context, used only by the task's goroutine, so a UDF call never
// crosses tasks.
type Context struct{ e *emitter }

// Emit sends a record along the task's edgeIdx-th outgoing job edge
// (ordered as in JobGraph.OutEdges). It may block under backpressure.
func (c *Context) Emit(edgeIdx int, rec Record) {
	c.e.emit(edgeIdx, rec)
}

// UDF is a user-defined function executed by each task of a vertex. One
// instance exists per task, so implementations may keep per-task state;
// the engine serializes all calls on the owning task goroutine.
type UDF interface {
	// Process handles one record; results go out via ctx.Emit.
	Process(ctx *Context, rec Record)
}

// TimerUDF is implemented by window-style UDFs that additionally emit on
// a fixed interval (e.g. time-based aggregation windows). Such vertices
// should declare model.LatencyReadWrite.
type TimerUDF interface {
	UDF
	// TimerInterval returns the emission period.
	TimerInterval() time.Duration
	// OnTimer fires once per period on the task goroutine.
	OnTimer(ctx *Context)
}

// UDFFunc adapts a plain function to the UDF interface.
type UDFFunc func(ctx *Context, rec Record)

// Process implements UDF.
func (f UDFFunc) Process(ctx *Context, rec Record) { f(ctx, rec) }

// SourceSpec drives a source vertex: the engine paces emissions to the
// schedule (split across the vertex's tasks) and calls Emit for each.
type SourceSpec struct {
	// Schedule yields the attempted total emission rate; the run ends
	// when every source schedule is exhausted (or Stop is called).
	Schedule workload.Schedule
	// Emit produces one emission (typically one record via ctx.Emit). It
	// runs concurrently on every task of the vertex, each on its own
	// goroutine, so its closure must be safe for concurrent use; ctx is
	// the calling task's own.
	Emit func(ctx *Context)
	// SampleProbability tags emissions for end-to-end latency probing
	// (default 0.1).
	SampleProbability float64
}

// EdgeBatching selects an edge's output-batching mode.
type EdgeBatching int

const (
	// BatchingAdaptive (the default) lets the QoS plane set flush
	// deadlines from the latency constraints; edges start at instant
	// flushing until the first adjustment interval.
	BatchingAdaptive EdgeBatching = iota + 1
	// BatchingInstant pins the edge to per-record flushing (the
	// Storm/Nephele-IF configuration).
	BatchingInstant
	// BatchingFixed flushes only when the batch-size cap is reached
	// (the Nephele-16KiB configuration): maximum throughput, unbounded
	// buffer latency.
	BatchingFixed
)

// JobSpec binds UDFs and sources to a job graph and carries the job's
// latency constraints. Build it with NewJobSpec, then Submit it to an
// Engine.
type JobSpec struct {
	graph       *model.JobGraph
	constraints []*model.Constraint
	udfs        map[string]func(taskIndex int) UDF
	sources     map[string]SourceSpec
	edgeModes   map[model.EdgeKey]EdgeBatching
}

// NewJobSpec creates a spec for the given (not yet validated) graph.
func NewJobSpec(graph *model.JobGraph) *JobSpec {
	return &JobSpec{
		graph:     graph,
		udfs:      make(map[string]func(int) UDF),
		sources:   make(map[string]SourceSpec),
		edgeModes: make(map[model.EdgeKey]EdgeBatching),
	}
}

// SetEdgeBatching overrides an edge's batching mode (default adaptive).
func (s *JobSpec) SetEdgeBatching(source, target string, mode EdgeBatching) *JobSpec {
	s.edgeModes[model.EdgeKey{Source: source, Target: target}] = mode
	return s
}

// edgeBatching returns the mode for an edge.
func (s *JobSpec) edgeBatching(key model.EdgeKey) EdgeBatching {
	if m, ok := s.edgeModes[key]; ok {
		return m
	}
	return BatchingAdaptive
}

// SetUDF installs the UDF factory for a vertex.
func (s *JobSpec) SetUDF(vertex string, factory func(taskIndex int) UDF) *JobSpec {
	s.udfs[vertex] = factory
	return s
}

// SetSource installs the source spec for a source vertex.
func (s *JobSpec) SetSource(vertex string, src SourceSpec) *JobSpec {
	s.sources[vertex] = src
	return s
}

// AddConstraint attaches a latency constraint.
func (s *JobSpec) AddConstraint(c *model.Constraint) *JobSpec {
	s.constraints = append(s.constraints, c)
	return s
}

// validate checks completeness.
func (s *JobSpec) validate() error {
	if s.graph == nil {
		return fmt.Errorf("engine: job spec has no graph")
	}
	if err := s.graph.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for _, v := range s.graph.Vertices() {
		_, hasUDF := s.udfs[v.Name]
		src, hasSrc := s.sources[v.Name]
		switch {
		case hasUDF && hasSrc:
			return fmt.Errorf("engine: vertex %q has both a UDF and a source", v.Name)
		case !hasUDF && !hasSrc:
			return fmt.Errorf("engine: vertex %q has neither a UDF nor a source", v.Name)
		case hasSrc && len(s.graph.InEdges(v.Name)) > 0:
			return fmt.Errorf("engine: source vertex %q has inbound edges", v.Name)
		case hasSrc && (src.Schedule == nil || src.Emit == nil):
			return fmt.Errorf("engine: source vertex %q needs a schedule and an emit function", v.Name)
		case hasUDF && len(s.graph.InEdges(v.Name)) == 0:
			return fmt.Errorf("engine: vertex %q has a UDF but no inputs", v.Name)
		}
	}
	return nil
}
