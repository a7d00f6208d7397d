package ckpt

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Log is one source partition's offset authority and bounded replay
// buffer. Append assigns the next offset and retains the entry until a
// committed checkpoint's watermark passes it (CommitTo); Uncommitted
// copies out the retained suffix for a replay. The entry type belongs
// to the driver — whatever it needs to re-emit one record. Offsets are
// implicit: entry i of the buffer is offset base+i, so the next offset
// is always base+len and no watermark can tear the two apart.
//
// The owning source appends and replays, the coordinator commits and
// other goroutines read the counters; all of it goes through one mutex
// that is uncontended in steady state. A Log outlives its task: see
// Registry.
type Log[T any] struct {
	id     int32
	vertex string
	name   string // "vertex#id": the key in checkpoint metadata
	cap    int
	stalls atomic.Int64

	mu   sync.Mutex
	base uint64 // committed watermark: offset of buf[0]
	buf  []T
}

// ID returns the stable partition id stamped into every record (> 0).
func (l *Log[T]) ID() int32 { return l.id }

// Append retains e and returns the offset assigned to it.
func (l *Log[T]) Append(e T) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, e)
	return l.base + uint64(len(l.buf)) - 1
}

// Next returns the offset the next Append will assign: the snapshot
// watermark of a barrier emitted now, every offset below it having been
// shipped before the barrier.
func (l *Log[T]) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.buf))
}

// Len returns the number of uncommitted entries.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Full reports whether the buffer reached its bound. The bound is
// advisory: sources pause emission while Full, so lineage is
// back-pressured, never dropped.
func (l *Log[T]) Full() bool { return l.Len() >= l.cap }

// Stall counts one emission deferred because the log was Full.
func (l *Log[T]) Stall() { l.stalls.Add(1) }

// CommitTo advances the committed watermark, releasing the entries
// below it. A watermark at or below the current one is a no-op; one
// beyond Next commits everything assigned so far and nothing more.
func (l *Log[T]) CommitTo(watermark uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if watermark <= l.base {
		return
	}
	drop := watermark - l.base
	if drop > uint64(len(l.buf)) {
		drop = uint64(len(l.buf))
	}
	n := copy(l.buf, l.buf[drop:])
	clear(l.buf[n:]) // release what the dropped entries referenced
	l.buf = l.buf[:n]
	l.base += drop
}

// Uncommitted appends the uncommitted entries to dst and returns them
// with the offset of the first: a replay re-emits exactly
// [first, first+len), outside the lock.
func (l *Log[T]) Uncommitted(dst []T) (entries []T, first uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(dst, l.buf...), l.base
}

// Registry owns a job's source logs: it hands out the stable ids and
// names ("vertex#id") that checkpoints are keyed by, and carries a log
// from a task that went away to the next task of the same vertex, so
// offsets stay monotonic — and the uncommitted suffix replayable —
// across crashes, respawns and scale cycles.
type Registry[T any] struct {
	cap int

	mu      sync.Mutex
	logs    []*Log[T] // creation order; logs[i].id == i+1
	orphans map[string][]*Log[T]
}

// ReplayBufferEntries is the bound both runtimes give every source's
// log: at it the source pauses emission until a checkpoint commits —
// backpressure, never loss.
const ReplayBufferEntries = 1 << 16

// NewRegistry returns an empty registry whose logs hold up to cap
// uncommitted entries each.
func NewRegistry[T any](cap int) *Registry[T] {
	return &Registry[T]{cap: cap, orphans: make(map[string][]*Log[T])}
}

// Attach returns the log for a new source task of vertex: the most
// recently orphaned one of that vertex when there is one (reattached
// true; whether and when its suffix is replayed is the driver's call),
// a fresh one otherwise.
func (r *Registry[T]) Attach(vertex string) (l *Log[T], reattached bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parked := r.orphans[vertex]; len(parked) > 0 {
		l = parked[len(parked)-1]
		r.orphans[vertex] = parked[:len(parked)-1]
		return l, true
	}
	id := int32(len(r.logs) + 1)
	l = &Log[T]{id: id, vertex: vertex, name: vertex + "#" + strconv.Itoa(int(id)), cap: r.cap}
	r.logs = append(r.logs, l)
	return l, false
}

// Orphan parks the log of a task that crashed or was removed until the
// vertex's next task attaches it. A log that is never reattached simply
// keeps its suffix.
func (r *Registry[T]) Orphan(l *Log[T]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.orphans[l.vertex] = append(r.orphans[l.vertex], l)
}

// Totals sums over every log ever created: offsets assigned (replays
// re-emit existing offsets and do not move it), entries still
// uncommitted, and emissions stalled on a full buffer.
func (r *Registry[T]) Totals() (assigned uint64, uncommitted int64, stalls int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.logs {
		assigned += l.Next()
		uncommitted += int64(l.Len())
		stalls += l.stalls.Load()
	}
	return
}

// named rekeys a round's watermarks (by log id) by partition name.
func (r *Registry[T]) named(offsets map[int32]uint64) map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(offsets))
	for id, off := range offsets {
		out[r.logs[id-1].name] = off
	}
	return out
}

// commitTo advances every log in offsets to its committed watermark.
func (r *Registry[T]) commitTo(offsets map[int32]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, off := range offsets {
		r.logs[id-1].CommitTo(off)
	}
}
