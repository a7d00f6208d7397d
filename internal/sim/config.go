package sim

import (
	"fmt"
	"math/rand"

	"nephelix/internal/ckpt"
	"nephelix/internal/core"
	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// BatchMode selects a channel's output batching strategy.
type BatchMode int

const (
	// BatchInstant flushes every item immediately (Storm / Nephele-IF).
	BatchInstant BatchMode = iota + 1
	// BatchFixedBuffer flushes only when the output buffer is full
	// (Nephele-16KiB): maximum throughput, worst latency.
	BatchFixedBuffer
	// BatchAdaptive flushes when the buffer is full or the oldest
	// buffered item reaches the flush deadline set by the QoS managers
	// (Nephele-20ms, the paper's adaptive output batching).
	BatchAdaptive
)

// String returns the mode name.
func (m BatchMode) String() string {
	switch m {
	case BatchInstant:
		return "instant"
	case BatchFixedBuffer:
		return "fixed-buffer"
	case BatchAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("BatchMode(%d)", int(m))
	}
}

// CostModel holds the data-plane cost constants of the simulated cluster.
// They substitute the 1 GbE / 4-core commodity hardware of Appendix A and
// are calibrated so the paper's measured throughput ratios between
// batching configurations hold (Section III-C).
type CostModel struct {
	// FlushCPU is the producer-side CPU cost of shipping one batch
	// (system calls, transport headers, interrupts). Charged to the
	// producing task, it makes unbatched shipping expensive — the
	// mechanism behind the paper's 30–58% effective-throughput gain from
	// batching.
	FlushCPU float64
	// ReceiveCPU is the consumer-side CPU cost of receiving one batch.
	ReceiveCPU float64
	// NetFixed is the fixed network latency per flush (propagation +
	// switching).
	NetFixed float64
	// NetPerByte is the serialization delay per byte (≈ 8 ns/B on 1 GbE).
	NetPerByte float64
	// TCPSetup is the extra latency of the first flush on a newly created
	// channel ("starting new tasks may initially worsen measured channel
	// latency, because new TCP/IP connections need to be established").
	TCPSetup float64
}

// DefaultCostModel returns constants calibrated against Figure 3: with
// per-item sizes of tens of bytes, instant flushing roughly doubles the
// per-item cost of cheap tasks while 16 KiB batches amortize it away.
func DefaultCostModel() CostModel {
	return CostModel{
		FlushCPU:   25e-6,
		ReceiveCPU: 5e-6,
		NetFixed:   150e-6,
		NetPerByte: 8e-9,
		TCPSetup:   1e-3,
	}
}

// Behavior is the simulated stand-in for a task's UDF: it supplies the
// per-item service time and produces output items. One Behavior instance
// exists per task, so implementations may keep per-task state. Both
// methods see the item in the task's service slot: the pointer is valid
// for the call only — a behavior may rewrite the item and emit it, but
// copies whatever it keeps.
type Behavior interface {
	// ServiceTime returns the CPU seconds the task spends on the item.
	ServiceTime(rng *rand.Rand, it *Item) float64
	// Process handles the item and emits results via ctx.Emit. It runs at
	// service completion time.
	Process(ctx *TaskContext, it *Item)
}

// TimerBehavior is implemented by window-style behaviors that emit on a
// fixed interval independent of input (e.g. the HotTopics 200 ms
// windows). OnTimer runs even when the input queue is empty.
type TimerBehavior interface {
	Behavior
	// TimerInterval returns the emission period in seconds.
	TimerInterval() float64
	// OnTimer fires once per period; emitted items count as writes for
	// read-write task latency.
	OnTimer(ctx *TaskContext)
}

// SourceFunc generates one emission for a source task. It emits items via
// ctx.Emit; now is the emission time.
type SourceFunc func(ctx *TaskContext, now float64)

// SourceConfig describes a source vertex: schedule-driven item emission.
type SourceConfig struct {
	// Schedule gives the attempted total emission rate over all source
	// tasks; each task emits its share.
	Schedule workload.Schedule
	// EmitCost is the CPU seconds needed to produce one item.
	EmitCost float64
	// Emit generates the items of one emission.
	Emit SourceFunc
	// Poisson draws exponential inter-emission gaps instead of the
	// default near-deterministic (±10% jitter) pacing; used to validate
	// the simulator against M/M/1 and M/D/1 closed forms.
	Poisson bool
}

// VertexConfig binds behavior to a job vertex.
type VertexConfig struct {
	// NewBehavior creates the task-local behavior; nil for sources.
	NewBehavior func(taskIndex int) Behavior
	// Source configures schedule-driven emission; nil for non-sources.
	Source *SourceConfig
	// SampleProbability is the fraction of source emissions tagged for
	// end-to-end latency probing (sources only; default 0.05).
	SampleProbability float64
}

// EdgeConfig sets the batching mode of a job edge's channels.
type EdgeConfig struct {
	Mode BatchMode
	// BufferBytes is the output buffer capacity (default 16 KiB).
	BufferBytes int
}

const (
	// managerCount is the number of QoS managers the reporters are
	// sharded over (the paper distributes managers for scalability).
	managerCount = 4
	// recordInterval is the metric reporting period in seconds (paper:
	// 10 s).
	recordInterval = 10.0
)

// Config describes one simulation run.
type Config struct {
	// Graph is the validated job graph (vertex parallelism = initial).
	Graph *model.JobGraph
	// Constraints are the job's latency constraints; they drive adaptive
	// batching and (when Elastic) the scaler.
	Constraints []*model.Constraint
	// Vertices and Edges configure behavior per vertex / edge. Every
	// vertex needs an entry; edges default to BatchAdaptive.
	Vertices map[string]VertexConfig
	Edges    map[model.EdgeKey]EdgeConfig
	// Costs is the data-plane cost model.
	Costs CostModel
	// Elastic enables the reactive scaling strategy; otherwise the
	// parallelism stays fixed.
	Elastic bool
	// Scaler configures the elastic scaler (used when Elastic) and the
	// batching controller's queue-wait share (core.DefaultScalerConfig
	// when zero).
	Scaler core.ScalerConfig
	// MeasurementInterval and AdjustmentInterval are the QoS plane
	// periods in seconds (paper: 1 s and 5 s).
	MeasurementInterval float64
	AdjustmentInterval  float64
	// QueueCapacityItems bounds every task input queue; full queues exert
	// backpressure.
	QueueCapacityItems int
	// WorkerNodes and SlotsPerNode describe the cluster pool available to
	// the scheduler (paper: 130 nodes × 4 slots).
	WorkerNodes  int
	SlotsPerNode int
	// Duration is the simulated time span in seconds; 0 derives it from
	// the longest source schedule plus a drain grace period.
	Duration float64
	// Seed drives all simulator randomness.
	Seed int64
	// Faults, when set, injects the plan's task and node kills as
	// simulation events (see FaultPlan).
	Faults *FaultPlan
	// Guarantee selects the processing-guarantee level (default
	// at-most-once: no offsets, no checkpoints, no replay — the
	// historical behavior, byte-identical to earlier versions).
	Guarantee ckpt.Guarantee
	// CheckpointInterval is the virtual-time period of barrier
	// checkpoints in seconds (default 1; only with Guarantee enabled).
	CheckpointInterval float64
	// OnAdjust, when set, observes every adjustment interval: the fresh
	// global summary, the flush deadlines just applied, and the scaler's
	// decision (nil during inactivity or when not elastic). Intended for
	// debugging and experiment instrumentation.
	OnAdjust func(info AdjustmentInfo)
	// Recorder, when set, receives one scaling_decision audit event per
	// adjustment interval in which the elastic scaler produced a
	// decision (model inputs, Rebalance steps, gating holds, old→new
	// parallelism).
	Recorder *obs.Recorder
	// Tracer, when set, head-samples source emissions and attributes
	// their end-to-end latency to per-hop batch delay, network transit,
	// queue wait and service time. Nil disables tracing at near-zero
	// cost.
	Tracer *obs.Tracer
	// Telemetry, when set, is scraped every adjustment interval (QoS
	// summary, scaler decision, Go runtime) and scores the Kingman
	// queue-wait predictions against the next interval's measurements.
	// Nil disables telemetry at zero cost.
	Telemetry *obs.Telemetry
}

// AdjustmentInfo is the control-plane state passed to Config.OnAdjust.
type AdjustmentInfo = master.Interval

// withDefaults fills zero values and validates.
func (c *Config) withDefaults() error {
	if c.Graph == nil {
		return fmt.Errorf("sim: config needs a job graph")
	}
	if err := c.Graph.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, v := range c.Graph.Vertices() {
		vc, ok := c.Vertices[v.Name]
		if !ok {
			return fmt.Errorf("sim: vertex %q has no VertexConfig", v.Name)
		}
		if (vc.Source == nil) == (vc.NewBehavior == nil) {
			return fmt.Errorf("sim: vertex %q needs exactly one of Source or NewBehavior", v.Name)
		}
		if vc.Source != nil && len(c.Graph.InEdges(v.Name)) > 0 {
			return fmt.Errorf("sim: source vertex %q has inbound edges", v.Name)
		}
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCostModel()
	}
	if c.MeasurementInterval <= 0 {
		c.MeasurementInterval = 1
	}
	if c.AdjustmentInterval <= 0 {
		c.AdjustmentInterval = 5
	}
	if c.QueueCapacityItems <= 0 {
		c.QueueCapacityItems = 1000
	}
	if c.WorkerNodes <= 0 {
		c.WorkerNodes = 130
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 4
	}
	if c.Duration <= 0 {
		longest := 0.0
		for _, vc := range c.Vertices {
			if vc.Source != nil && vc.Source.Schedule.Duration() > longest {
				longest = vc.Source.Schedule.Duration()
			}
		}
		if longest <= 0 {
			return fmt.Errorf("sim: duration not set and no source schedule to derive it from")
		}
		c.Duration = longest + 5
	}
	if c.Faults != nil {
		if err := c.Faults.validate(c); err != nil {
			return err
		}
	}
	if c.Guarantee.Enabled() && c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 1
	}
	return nil
}

// edgeConfig returns the configuration of an edge, with defaults.
func (c *Config) edgeConfig(key model.EdgeKey) EdgeConfig {
	ec, ok := c.Edges[key]
	if !ok {
		ec = EdgeConfig{Mode: BatchAdaptive}
	}
	if ec.Mode == 0 {
		ec.Mode = BatchAdaptive
	}
	if ec.BufferBytes <= 0 {
		ec.BufferBytes = 16 * 1024
	}
	return ec
}
