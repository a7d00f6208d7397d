// Package obs is the observability layer: a ring-buffered structured
// event log (the scaler decision audit trail plus engine lifecycle
// events), deterministic head-sampled record tracing with per-hop
// latency attribution, and an opt-in HTTP introspection server exposing
// health, Prometheus-format metrics, pprof, and the recent audit trail.
//
// The package sits above internal/core and internal/qos: it converts
// their decision and summary types into JSON-stable event payloads. The
// runtimes (internal/engine, internal/sim) depend on obs; core never
// does — audit data travels inside core's own decision types and is
// mapped here.
package obs

import "math"

// Event kinds. KindScalingDecision events carry a Decision payload; all
// other kinds carry a Lifecycle payload.
const (
	KindScalingDecision = "scaling_decision"
	KindTaskStart       = "task_start"
	KindTaskPanic       = "task_panic"
	KindTaskRestart     = "task_restart"
	KindTaskKill        = "task_kill"
	KindVertexDegraded  = "vertex_degraded"
	KindDropCounters    = "drop_counters"
	// Barrier-checkpoint lifecycle (processing guarantees): a checkpoint
	// starts when the master injects barriers at the sources, commits
	// when every task acknowledged alignment, and aborts on topology
	// churn (scaling, crash) or when a newer barrier supersedes it.
	KindCheckpointStart  = "checkpoint_start"
	KindCheckpointCommit = "checkpoint_commit"
	KindCheckpointAbort  = "checkpoint_abort"
	// KindReplay audits one source-replay round after a recovery.
	KindReplay = "replay"
	// KindSLOViolation marks a per-constraint tail-latency SLO crossing
	// from met to violated: the tracked percentile estimate exceeded the
	// constraint's bound. Recorded once per transition, not per interval.
	KindSLOViolation = "slo_violation"
	// Backpressure episodes (data-plane monitor): onset when an edge
	// enters a consumer-limited or ring-saturated interval, cleared when
	// it leaves. The Lifecycle payload carries the edge, the attributed
	// culprit vertex and the classification inputs.
	KindBackpressureOnset   = "backpressure_onset"
	KindBackpressureCleared = "backpressure_cleared"
	// KindRingDrain audits the master reclaiming a dead task's input
	// rings: one event per inbound edge that lost queued records.
	KindRingDrain = "ring_drain"
	// KindScalerError audits an adjustment interval whose scaling step
	// failed in the live engine (the job keeps running unscaled); Reason
	// carries the error, recorded once per distinct message.
	KindScalerError = "scaler_error"
)

// Event is one entry of the flight recorder. Time is seconds since the
// run started (virtual time in the simulator, wall time in the engine).
type Event struct {
	Seq  uint64  `json:"seq"`
	Time float64 `json:"time"`
	Kind string  `json:"kind"`

	Decision  *ScalingDecision `json:"decision,omitempty"`
	Lifecycle *Lifecycle       `json:"lifecycle,omitempty"`
}

// ScalingDecision is the audit record of one elastic-scaler adjustment
// interval: every constraint's resolution path with its fitted model
// inputs and gradient steps, the gating holds applied afterwards, and
// the resulting old→new parallelism vector.
type ScalingDecision struct {
	// Interval is the adjustment-interval ordinal (1-based).
	Interval int `json:"interval"`
	// Constraints holds one entry per latency constraint, in input order.
	Constraints []ConstraintDecision `json:"constraints"`
	// Holds lists scaling intentions reverted or weakened by the scaler's
	// gating (dead band, scale-down clamp, low coverage).
	Holds []GatingHold `json:"holds,omitempty"`
	// Old and New are the parallelism vectors before and after the
	// decision; Actions renders their diff.
	Old     map[string]int `json:"old"`
	New     map[string]int `json:"new"`
	Actions []string       `json:"actions,omitempty"`
	// Drift lists the (constraint, vertex) cells whose Kingman
	// predictions have drifted from the measured queue waits, as
	// reported by the telemetry residual monitor at decision time.
	Drift []DriftFlag `json:"drift,omitempty"`
}

// ConstraintDecision explains how one latency constraint was handled.
type ConstraintDecision struct {
	Constraint string `json:"constraint"`
	// Skipped means the summary did not cover the sequence yet.
	Skipped bool `json:"skipped,omitempty"`
	// Bottleneck means the ResolveBottlenecks path was taken instead of
	// Rebalance.
	Bottleneck   bool     `json:"bottleneck,omitempty"`
	Infeasible   bool     `json:"infeasible,omitempty"`
	Unresolvable []string `json:"unresolvable,omitempty"`
	Coverage     float64  `json:"coverage,omitempty"`
	LowCoverage  bool     `json:"low_coverage,omitempty"`
	// QueueWaitLimit is Ŵ_js, the queue-wait share of the latency budget
	// (Rebalance path only).
	QueueWaitLimit float64 `json:"queue_wait_limit,omitempty"`
	// Model holds the fitted Kingman inputs per sequence vertex
	// (Rebalance path only).
	Model []VertexModelInputs `json:"model,omitempty"`
	// Steps records Rebalance's gradient-descent iterations.
	Steps []RebalanceStep `json:"steps,omitempty"`
	// Parallelism is the per-vertex choice made for this constraint.
	Parallelism map[string]int `json:"parallelism,omitempty"`
}

// VertexModelInputs are the measured Kingman model inputs and fitted
// coefficients of one vertex (Equations 3–5).
type VertexModelInputs struct {
	Vertex string `json:"vertex"`
	// Lambda is the per-task arrival rate λ; ServiceMean the mean service
	// time s̄; CA2 and CS2 the squared coefficients of variation.
	Lambda      float64 `json:"lambda"`
	ServiceMean float64 `json:"service_mean"`
	CA2         float64 `json:"ca2"`
	CS2         float64 `json:"cs2"`
	// Error is the fitted error coefficient e_jv (Equation 4).
	Error float64 `json:"e"`
	// A and B are the model coefficients (A = e·a).
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	Current int     `json:"current"`
	Min     int     `json:"min"`
	Max     int     `json:"max"`
	// Notes lists the inputs the fit clamped (see core.VertexModel.Notes).
	Notes []string `json:"notes,omitempty"`
}

// RebalanceStep is one gradient-descent iteration of Algorithm 1: the
// steepest vertex grew from From to To, where PDelta is the P_Δ target
// (marginal matched to the runner-up) and PW the P_W cap (budget spent
// exactly).
type RebalanceStep struct {
	Vertex   string  `json:"vertex"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Steepest float64 `json:"steepest"`
	RunnerUp float64 `json:"runner_up,omitempty"`
	PDelta   int     `json:"p_delta,omitempty"`
	PW       int     `json:"p_w,omitempty"`
}

// GatingHold records one per-vertex intervention by the scaler's gating
// (reasons: "dead-band", "scale-down-clamp", "low-coverage"): the
// optimizer proposed Proposed, the gate kept Kept.
type GatingHold struct {
	Vertex   string `json:"vertex"`
	Reason   string `json:"reason"`
	Proposed int    `json:"proposed"`
	Kept     int    `json:"kept"`
}

// Lifecycle is the payload of engine lifecycle events.
type Lifecycle struct {
	Vertex string `json:"vertex,omitempty"`
	Task   string `json:"task,omitempty"`
	// Reason carries the panic value (task_panic) or failure description
	// (vertex_degraded).
	Reason string `json:"reason,omitempty"`
	// Attempts is the consecutive-failure count at restart scheduling.
	Attempts int `json:"attempts,omitempty"`
	// BackoffSeconds is the restart delay chosen by the supervisor.
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
	// Drop counters (drop_counters events, reported at shutdown).
	LostRecords       int64 `json:"lost_records,omitempty"`
	DroppedReports    int64 `json:"dropped_reports,omitempty"`
	DroppedNoConsumer int64 `json:"dropped_no_consumer,omitempty"`
	// Barrier-checkpoint fields (checkpoint_* and replay events).
	CheckpointID int64 `json:"checkpoint_id,omitempty"`
	// DurationSeconds is injection-to-commit time (checkpoint_commit).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// CommittedOffsets is the sum of the committed source watermarks
	// (checkpoint_commit) or the number of records re-emitted (replay).
	CommittedOffsets uint64 `json:"committed_offsets,omitempty"`
	// Tail-latency SLO fields (slo_violation events): the constraint
	// name travels in Reason-free form here, the tracked quantile, its
	// current estimate, the constraint bound, and the burn rate over the
	// sliding window at transition time.
	Constraint      string  `json:"constraint,omitempty"`
	Quantile        float64 `json:"quantile,omitempty"`
	EstimateSeconds float64 `json:"estimate_seconds,omitempty"`
	BoundSeconds    float64 `json:"bound_seconds,omitempty"`
	BurnRate        float64 `json:"burn_rate,omitempty"`
	// Data-plane fields (backpressure_* and ring_drain events): the job
	// edge concerned, the backpressure classification, and the sampled
	// inputs it was derived from. The attributed culprit vertex travels
	// in Vertex; ring_drain lost counts in LostRecords.
	Edge          string  `json:"edge,omitempty"`
	State         string  `json:"state,omitempty"`
	OccupancyFrac float64 `json:"occupancy_frac,omitempty"`
	StallFrac     float64 `json:"stall_frac,omitempty"`
}

// jsonSafe clamps non-finite floats so event payloads always marshal:
// encoding/json rejects ±Inf and NaN, but marginals and runner-up gains
// are legitimately infinite at saturated vertices.
func jsonSafe(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	default:
		return x
	}
}
