package ckpt

import (
	"math/bits"
	"sync"

	"nephelix/internal/model"
)

// DedupTable tracks which (source, offset) pairs a sink vertex has
// delivered, so replayed records can be detected (at-least-once) or
// suppressed (exactly-once). It is bounded by construction: each source
// gets a dense bitmap window starting at that source's committed
// watermark, and Prune advances the window base at every checkpoint
// commit — committed offsets are never replayed, so anything below the
// base is a duplicate by definition. Window size is therefore capped by
// the source replay-buffer bound, not the stream length.
//
// One table serves a whole sink vertex — rotation rerouting can deliver
// a replayed record to a different task than the original — so it is
// safe for concurrent use: the engine's sink tasks admit while the
// master prunes. The bitmap windows keep a steady-state Admit
// allocation-free.
type DedupTable struct {
	mu       sync.Mutex
	windows  map[int32]*OffsetWindow
	distinct int64
	dups     int64
	holes    int64
}

// NewDedupTable returns an empty table.
func NewDedupTable() *DedupTable {
	return &DedupTable{windows: make(map[int32]*OffsetWindow)}
}

// SinkDedups builds one dedup table per sink vertex of g (a vertex with
// no out-edges), shared by all the vertex's tasks: by vertex name, and in
// g's vertex order for the coordinator.
func SinkDedups(g *model.JobGraph) (byVertex map[string]*DedupTable, all []*DedupTable) {
	byVertex = make(map[string]*DedupTable)
	for _, jv := range g.Vertices() {
		if len(g.OutEdges(jv.Name)) == 0 {
			d := NewDedupTable()
			byVertex[jv.Name] = d
			all = append(all, d)
		}
	}
	return byVertex, all
}

// Admit records a delivery of (src, off) and reports whether it is the
// first one (true) or a duplicate (false).
func (d *DedupTable) Admit(src int32, off uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.windows[src]
	if w == nil {
		w = &OffsetWindow{}
		d.windows[src] = w
	}
	if w.testAndSet(off) {
		d.dups++
		return false
	}
	d.distinct++
	return true
}

// Prune advances one source's window base to the committed watermark,
// releasing the bitmap below it. Offsets below a committed watermark
// that were never admitted are counted as holes: with barrier-consistent
// commits and an offset-complete pipeline (every source record reaches
// every tracked sink) holes mean lost-but-committed records, the exact
// quantity the zero-loss assertions check.
func (d *DedupTable) Prune(src int32, watermark uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.windows[src]
	if w == nil {
		w = &OffsetWindow{}
		d.windows[src] = w
	}
	d.holes += w.prune(watermark)
}

// Distinct returns the number of first-time deliveries admitted.
func (d *DedupTable) Distinct() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.distinct
}

// Dups returns the number of duplicate deliveries observed.
func (d *DedupTable) Dups() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dups
}

// Holes returns the cumulative committed-but-never-delivered offsets
// observed by Prune (0 under a correct at-least-once run over an
// offset-complete pipeline).
func (d *DedupTable) Holes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.holes
}

// OffsetWindow is a dense bitmap over one source's offsets, starting at
// the committed watermark.
type OffsetWindow struct {
	base uint64
	bits []uint64
}

// testAndSet marks off as seen; true when it was already set (or below
// the pruned base, which implies an earlier committed delivery).
func (w *OffsetWindow) testAndSet(off uint64) bool {
	if off < w.base {
		return true
	}
	idx := off - w.base
	word := int(idx >> 6)
	for word >= len(w.bits) {
		w.bits = append(w.bits, 0)
	}
	mask := uint64(1) << (idx & 63)
	if w.bits[word]&mask != 0 {
		return true
	}
	w.bits[word] |= mask
	return false
}

// prune advances the base to watermark, returning how many offsets in
// [base, watermark) were never set.
func (w *OffsetWindow) prune(watermark uint64) int64 {
	if watermark <= w.base {
		return 0
	}
	n := watermark - w.base
	w.base = watermark

	// Count set bits among the first n positions.
	var set int64
	full := int(n >> 6)
	for i := 0; i < full && i < len(w.bits); i++ {
		set += int64(bits.OnesCount64(w.bits[i]))
	}
	if rem := uint(n & 63); rem > 0 && full < len(w.bits) {
		set += int64(bits.OnesCount64(w.bits[full] & (1<<rem - 1)))
	}

	// Shift the bitmap down by n positions (word part then bit part).
	if full >= len(w.bits) {
		w.bits = w.bits[:0]
	} else {
		copy(w.bits, w.bits[full:])
		w.bits = w.bits[:len(w.bits)-full]
		if rem := uint(n & 63); rem > 0 {
			for i := 0; i < len(w.bits); i++ {
				w.bits[i] >>= rem
				if i+1 < len(w.bits) {
					w.bits[i] |= w.bits[i+1] << (64 - rem)
				}
			}
		}
	}
	return int64(n) - set
}
