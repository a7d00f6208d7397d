package engine

import "sync"

// batchPool is the execution-wide free list of Record slices, the
// engine-side counterpart of the simulator's batch pooling (sim/pool.go).
// Unlike the single-threaded simulator, slices here cross goroutines —
// detached from a producer's gate at flush, in flight inside a batch,
// returned by whichever goroutine finishes with them — so the free
// lists are mutex-guarded. Many task goroutines hit the pool
// concurrently; the free list is split into poolShards independently
// locked shards, and every caller carries a stable hint assigned at
// task construction so its traffic
// stays on one shard (hints are spread round-robin, keeping the shards
// balanced without any cross-shard stealing).
//
// Ownership contract (see DESIGN.md "Engine data plane"):
//
//   - A gate owns its buffer slices exclusively; only the producing
//     emitter's goroutine touches them.
//   - gate.take transfers ownership of the flushed slice to the
//     shipment's batch and hands the gate a replacement from the pool.
//     Under broadcast the last consumer gets the original, the others
//     pooled copies.
//   - Exactly one party returns every shipped slice: the consumer after
//     handleBatch, the producer when the consumer is dead, or the master
//     when it drains a crashed task's rings. After put the slice must
//     not be touched.
//   - A batch that dies with a panicking UDF is never recycled (the
//     collector reclaims it); correctness first, reuse second.
//
// The zero value is ready to use (gate-level tests build gates around
// a zero batchPool).
type batchPool struct {
	shards [poolShards]poolShard
}

type poolShard struct {
	mu   sync.Mutex
	free [][]Record
	// hits/misses/puts count get() outcomes and returns; guarded by mu
	// (the counters piggyback on the lock every caller already takes,
	// so instrumentation adds no synchronization).
	hits   int64
	misses int64
	puts   int64
}

// poolShardStats is one shard's sampled counters.
type poolShardStats struct {
	Hits   int64
	Misses int64
	Puts   int64
}

// poolShards is a power of two so hint masking is cheap.
const poolShards = 8

// maxPooledPerShard bounds each shard's free list so a transient
// backpressure spike cannot pin an arbitrary amount of memory for the
// rest of the execution (total bound matches the pre-shard pool).
const maxPooledPerShard = 4096 / poolShards

// get returns an empty batch slice, reusing recycled capacity when
// available. The zero return is nil: append allocates on first use and
// the allocation is recovered at recycle time.
func (p *batchPool) get(hint int) []Record {
	s := &p.shards[hint&(poolShards-1)]
	s.mu.Lock()
	n := len(s.free)
	if n == 0 {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	s.hits++
	s.mu.Unlock()
	return b
}

// stats snapshots every shard's counters (sampler path; takes each
// shard lock briefly).
func (p *batchPool) stats() [poolShards]poolShardStats {
	var out [poolShards]poolShardStats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		out[i] = poolShardStats{Hits: s.hits, Misses: s.misses, Puts: s.puts}
		s.mu.Unlock()
	}
	return out
}

// put returns a slice whose records have been fully consumed. Records
// are zeroed first so recycled capacity pins no payloads or trace spans;
// elements past len were zeroed by an earlier put and are never re-set.
func (p *batchPool) put(hint int, b []Record) {
	if cap(b) == 0 {
		return
	}
	for i := range b {
		b[i] = Record{}
	}
	s := &p.shards[hint&(poolShards-1)]
	s.mu.Lock()
	if len(s.free) < maxPooledPerShard {
		s.free = append(s.free, b[:0])
	}
	s.puts++
	s.mu.Unlock()
}
