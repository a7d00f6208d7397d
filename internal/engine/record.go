// Package engine is the live, goroutine-based streaming runtime: the
// Nephele-style execution layer that runs real UDFs over real data with
// the same control plane the paper describes — QoS reporters and
// managers, adaptive output batching, and the reactive elastic scaler of
// internal/core. Each task is a goroutine; a channel is a bounded
// single-producer single-consumer ring of record batches
// (internal/ring), so a full ring back-pressures its producer; the
// master goroutine runs internal/master's loop once per adjustment
// interval to adjust flush deadlines and degrees of parallelism.
//
// The engine targets laptop-scale executions (examples, integration
// tests, small deployments). Cluster-scale reproductions of the paper's
// figures run on the virtual-time simulator in internal/sim instead; both
// layers share the model, QoS, probe, core and master packages, so the
// control plane under test is identical.
package engine

import (
	"time"

	"nephelix/internal/obs"
)

// Record is one data item flowing through the job.
type Record struct {
	// Key selects the partition under key-based wiring and is available
	// to UDFs as a lightweight identifier.
	Key uint64
	// Value is the payload. UDFs agree on the concrete types per edge.
	Value any

	// EmitTime is the wall-clock time the record (or its oldest sampled
	// ancestor) entered the constrained sequence; zero when unsampled.
	// End-to-end probes measure against it.
	EmitTime time.Time

	// span is the record's trace span (nil unless the record descends
	// from a head-sampled emission and tracing is on). Records emitted
	// while processing a traced record inherit it.
	span *obs.Span

	// srcID and offset are the record's lineage under processing
	// guarantees: the stable source-partition id that emitted it (0 =
	// untracked) and its per-source sequence number. Value fields, so
	// offset tagging costs no allocation; records emitted while
	// processing a tracked record inherit the lineage (emit), which is
	// how 1:1 pipelines carry offsets to the dedup sinks.
	srcID int32
	// Sampled marks records participating in latency probing. It shares
	// srcID's word, which keeps a Record at 72 bytes (TestRecordSize).
	Sampled bool
	offset  uint64
}

// batch is the unit shipped between tasks: records that left one
// producer's output gate together. Its items slice is pool-recycled
// (see pool.go): the receiving consumer owns it exclusively from ship
// to recycle, and no other party — including the producing gate — may
// retain a reference after the shipment is handed off.
type batch struct {
	items []Record
	// from identifies the producing channel for QoS attribution.
	producer  int
	edgePos   int
	oldestBuf time.Time
	shipped   time.Time
	// poolHint is the batch-pool shard the items slice came from; the
	// recycler passes it back to pool.put so slices return to the shard
	// their producer draws from (recycle affinity — without it producer
	// shards starve and every flush allocates).
	poolHint int
	// barrier, when non-zero, marks this batch as a checkpoint barrier
	// with that id: items is nil, the batch rides the same channels as
	// data (per-producer FIFO is what makes alignment a consistent cut),
	// and consumers align instead of processing (task.onBarrier).
	barrier int64
}
