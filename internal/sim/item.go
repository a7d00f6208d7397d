package sim

import "nephelix/internal/obs"

// Item is one simulated data item flowing through the runtime graph.
// An item is written once, into its producer's gate buffer; the buffer's
// array then travels to the consumer, which reads the item in place.
// What is true of the whole array — when it shipped, on which channel,
// when it arrived, whether it is a barrier marker — is in its batch
// header, not here.
type Item struct {
	// EmitTime is the virtual time the item (or its oldest ancestor)
	// entered the constrained sequence at a source; end-to-end latency
	// probes measure against it.
	EmitTime float64
	// BufferTime is the time the item was placed into the current output
	// buffer; channel latency l_e is measured from it.
	BufferTime float64
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

	// Src and Offset are the item's lineage under processing
	// guarantees: the source partition (0 = untracked, e.g. guarantees
	// disabled or a timer emission) and the per-source offset of its
	// ancestor. Items emitted during Process inherit them from the item
	// being processed.
	Src    int32
	Offset uint64

	// span is the item's trace span (nil unless the item descends from a
	// head-sampled emission and tracing is on). It travels with the
	// value copy and is inherited by items emitted while processing a
	// traced item.
	span *obs.Span
}

// release drops the reference an item slot holds (the trace span) once
// its item has moved on, so a slot awaiting reuse pins nothing; the
// scalar fields are left to be overwritten.
func (it *Item) release() { it.span = nil }

// batchHeader is what every item of a shipped batch has in common. Each
// stamp is written once, for the batch: shipped, src and barrier by
// ship, arrive by acceptFront. The header travels with the array —
// channel FIFO, queue entry — and is copied to the consumer's service
// slot with the item being served.
type batchHeader struct {
	// shipped is the time the flush carrying the batch started; output
	// batch latency obl_e = shipped − Item.BufferTime.
	shipped float64
	// src is the channel delivering the batch; the consumer records
	// channel latency against it at dequeue time.
	src *simChannel
	// arrive is the time the consumer's queue accepted the batch; queue
	// wait is measured from it.
	arrive float64
	// barrier is a marker's checkpoint id, zero for a data batch. A
	// marker has one placeholder item, so it takes a queue slot; the
	// alignment logic consumes it instead of the behavior.
	barrier int64
}

// dataItems counts a batch's items that are records, so fault-loss
// accounting never counts a control marker as a lost record.
func (b *batch) dataItems() int64 {
	if b.barrier != 0 {
		return 0
	}
	return int64(len(b.items))
}

// batch is a detached gate buffer on its way to, or in, a consumer's
// queue.
type batch struct {
	items []Item
	batchHeader
}
