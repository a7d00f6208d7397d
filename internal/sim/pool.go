package sim

// Batch slice pooling: every flush detaches the gate buffer's []Item as
// the in-flight batch, the consumer queues that same array, and it
// returns to a per-Sim free list when its last item has been popped (or
// the batch is dropped). In steady state a run cycles a small working
// set of slices instead of allocating one per flush. The Sim is
// single-threaded, so the free list needs no locking.

// maxPooledBatches bounds the free list so a transient backpressure
// spike (many stalled batches released at once) cannot pin an arbitrary
// amount of memory for the rest of the run.
const maxPooledBatches = 4096

// getBatch returns an empty batch slice, reusing recycled capacity when
// available. The zero return is nil: append allocates on first use and
// the allocation is recovered at recycle time.
func (s *Sim) getBatch() []Item {
	if n := len(s.batchPool); n > 0 {
		b := s.batchPool[n-1]
		s.batchPool[n-1] = nil
		s.batchPool = s.batchPool[:n-1]
		return b
	}
	return nil
}

// recycleBatch returns a dropped batch to the free list. Its items are
// released first so recycled capacity does not pin trace spans.
func (s *Sim) recycleBatch(b []Item) {
	for i := range b {
		b[i].release()
	}
	s.poolBatch(b)
}

// poolBatch puts an array whose every slot has been released on the free
// list.
func (s *Sim) poolBatch(b []Item) {
	if cap(b) == 0 || len(s.batchPool) >= maxPooledBatches {
		return
	}
	s.batchPool = append(s.batchPool, b[:0])
}
