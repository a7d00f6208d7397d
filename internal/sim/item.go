package sim

import "nephelix/internal/obs"

// Item is one simulated data item flowing through the runtime graph.
// An item is written once, into its producer's gate buffer; the buffer's
// array then travels to the consumer, which reads the item in place.
type Item struct {
	// EmitTime is the virtual time the item (or its oldest ancestor)
	// entered the constrained sequence at a source; end-to-end latency
	// probes measure against it.
	EmitTime float64
	// BufferTime is the time the item was placed into the current output
	// buffer; channel latency l_e is measured from it.
	BufferTime float64
	// ShipTime is the time the flush carrying the item started; output
	// batch latency obl_e = ShipTime − BufferTime.
	ShipTime float64
	// Size is the item's serialized size in bytes; it drives buffer-full
	// flushes and per-byte network cost.
	Size int32
	// Kind is an application-defined tag (e.g. tweet vs topic list).
	Kind uint8
	// Sampled marks items participating in end-to-end latency probing.
	Sampled bool
	// Key selects the partition for key-based wiring and carries
	// application payload identity (e.g. the candidate number or topic).
	Key uint64
	// Origins carries the sampled EmitTimes of items aggregated into this
	// one (windowed operators), so sequence latency with read-write
	// semantics stays measurable across aggregation. Nil for ordinary
	// items.
	Origins []float64

	// Src and Offset are the item's lineage under processing
	// guarantees: the source partition (0 = untracked, e.g. guarantees
	// disabled or a timer emission) and the per-source offset of its
	// ancestor. Items emitted during Process inherit them from the item
	// being processed.
	Src    int32
	Offset uint64

	// barrier marks checkpoint-barrier markers (the checkpoint id);
	// zero for data items. Barriers ride the regular channels so
	// per-channel FIFO keeps the cut consistent, but are consumed by
	// the alignment logic instead of the behavior.
	barrier int64

	// src is the channel that delivered the item to the current task; the
	// consumer records channel latency against it at dequeue time.
	src *simChannel

	// span is the item's trace span (nil unless the item descends from a
	// head-sampled emission and tracing is on). It travels with the
	// value copy and is inherited by items emitted while processing a
	// traced item.
	span *obs.Span
	// arrive is the time the item was enqueued at the current consumer;
	// the traced queue wait is measured from it.
	arrive float64
}

// release drops the references an item slot holds (Origins, the trace
// span, the delivering channel) once its item has moved on, so a slot
// awaiting reuse pins nothing; the scalar fields are left to be
// overwritten.
func (it *Item) release() { it.Origins, it.src, it.span = nil, nil, nil }
