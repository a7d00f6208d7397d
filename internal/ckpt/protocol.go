package ckpt

import "sync"

// Round is a fully acknowledged checkpoint round, as the completing ack
// returns it: ready for Commit.
type Round struct {
	ID       int64
	Gen      int64            // topology generation at injection
	Started  float64          // injection time
	Offsets  map[int32]uint64 // source log id → snapshot watermark
	MaxStall float64          // worst first-to-last barrier gap at any task
}

// Outcome is what became of a round; the driver forwards it to its
// telemetry and flight recorder.
type Outcome struct {
	ID        int64
	Committed bool
	Reason    string // why an uncommitted round was discarded
	Duration  float64
	Interval  float64 // since the previous commit
	MaxStall  float64
	Offsets   uint64 // sum of the committed watermarks
}

// logSet is what a commit needs of the job's Registry, whatever its
// entry type.
type logSet interface {
	named(offsets map[int32]uint64) map[string]uint64
	commitTo(offsets map[int32]uint64)
}

// Coordinator runs a job's barrier checkpoints: it numbers the rounds,
// tracks the single one in flight, counts topology generations so a
// round that raced churn is never committed, and commits. K identifies
// a consumer task.
//
// One goroutine coordinates (Begin, Abort, Churn, Commit: the engine's
// master loop, the simulator's event loop); any goroutine may
// acknowledge. Times are seconds since run start, supplied by the
// caller — nothing here reads a clock.
type Coordinator[K comparable] struct {
	store  Store
	logs   logSet
	dedups []*DedupTable

	mu      sync.Mutex
	seq     int64 // id of the last round begun
	gen     int64 // topology generation; Churn bumps it
	cur     Round // the round in flight; cur.ID == 0 when idle
	expect  map[K]int
	pending int // acks outstanding (sources + consumers)

	committed, aborted int64
	lastCommit         float64
}

// NewCoordinator returns an idle coordinator committing to store and
// pruning logs and the sink dedup tables.
func NewCoordinator[K comparable, T any](store Store, logs *Registry[T], dedups []*DedupTable) *Coordinator[K] {
	return &Coordinator[K]{store: store, logs: logs, dedups: dedups}
}

// Begin arms the next round at time at and returns its id: expect holds,
// per consumer task, how many barriers it must align; sources is the
// number of source partitions that will acknowledge. No round may be in
// flight.
func (c *Coordinator[K]) Begin(at float64, expect map[K]int, sources int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.cur = Round{ID: c.seq, Gen: c.gen, Started: at, Offsets: make(map[int32]uint64, sources)}
	c.expect = expect
	c.pending = sources + len(expect)
	return c.seq
}

// InFlight returns the id of the round in flight (0 when idle).
func (c *Coordinator[K]) InFlight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.ID
}

// Expected returns how many barriers task k must align for round id, or
// -1 when id is not in flight or k is not part of it (created after
// injection, or already acknowledged).
func (c *Coordinator[K]) Expected(id int64, k K) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if exp, ok := c.expect[k]; ok && c.cur.ID == id {
		return exp
	}
	return -1
}

// AckSource acknowledges that source log src emitted round id's barrier
// behind every offset below watermark. Acks of another round, and a
// second ack of the same log, are ignored. The ack that completes the
// round returns it.
func (c *Coordinator[K]) AckSource(id int64, src int32, watermark uint64) (Round, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.cur.Offsets[src]; dup || c.cur.ID != id {
		return Round{}, false
	}
	c.cur.Offsets[src] = watermark
	return c.ackedLocked()
}

// AckWorker acknowledges that consumer task k aligned round id after
// stalling stall between its first and last barrier; ignored like
// AckSource. The ack that completes the round returns it.
func (c *Coordinator[K]) AckWorker(id int64, k K, stall float64) (Round, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.expect[k]; !ok || c.cur.ID != id {
		return Round{}, false
	}
	delete(c.expect, k)
	if stall > c.cur.MaxStall {
		c.cur.MaxStall = stall
	}
	return c.ackedLocked()
}

// ackedLocked books one ack and hands the round out once all arrived.
func (c *Coordinator[K]) ackedLocked() (Round, bool) {
	c.pending--
	if c.pending > 0 {
		return Round{}, false
	}
	r := c.cur
	c.cur, c.expect = Round{}, nil
	return r, true
}

// Abort discards the round in flight, if any: its late barriers never
// complete and never acknowledge.
func (c *Coordinator[K]) Abort(reason string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.ID == 0 {
		return Outcome{}, false
	}
	out := Outcome{ID: c.cur.ID, Reason: reason}
	c.cur, c.expect = Round{}, nil
	c.aborted++
	return out, true
}

// Churn records a topology change (scaling, crash, restart): the round
// in flight is aborted because its barrier cut no longer matches the
// routing it was injected into, and the generation bump makes Commit
// discard a round that completed before the change but was not yet
// committed.
func (c *Coordinator[K]) Churn(reason string) (Outcome, bool) {
	c.mu.Lock()
	c.gen++
	c.mu.Unlock()
	return c.Abort(reason)
}

// Commit finishes a completed round at time now: check the generation,
// persist the watermarks (with the run's emitted/lost counters), then
// prune the source logs and the sink dedup windows up to them.
// Persist-then-prune: a crash between the two replays a committed
// suffix — duplicates, which the guarantee ladder absorbs — whereas the
// reverse order could lose records. A store failure therefore leaves
// everything unpruned and counts as an abort.
func (c *Coordinator[K]) Commit(r Round, now float64, emitted, lost int64) Outcome {
	out := Outcome{ID: r.ID, Duration: now - r.Started, MaxStall: r.MaxStall}
	ck := Checkpoint{ID: r.ID, At: now, SourceOffsets: c.logs.named(r.Offsets), Emitted: emitted, LostRecords: lost}
	out.Reason = c.persistAndPrune(r, ck)
	c.mu.Lock()
	defer c.mu.Unlock()
	if out.Reason != "" {
		c.aborted++
		return out
	}
	c.committed++
	out.Committed = true
	out.Interval = now - c.lastCommit
	c.lastCommit = now
	out.Offsets = ck.TotalOffsets()
	return out
}

// persistAndPrune is Commit's sequence; it returns why the round was
// discarded, "" when every step succeeded.
func (c *Coordinator[K]) persistAndPrune(r Round, ck Checkpoint) string {
	c.mu.Lock()
	stale := r.Gen != c.gen
	c.mu.Unlock()
	if stale {
		return "topology changed during alignment"
	}
	// The store may do I/O: never under mu, which task goroutines take.
	if err := c.store.Save(ck); err != nil {
		return "store: " + err.Error()
	}
	c.logs.commitTo(r.Offsets)
	for _, d := range c.dedups {
		for src, off := range r.Offsets {
			d.Prune(src, off)
		}
	}
	return ""
}

// Counts returns how many rounds committed and how many were discarded
// (superseded, topology churn, or store failure).
func (c *Coordinator[K]) Counts() (committed, aborted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed, c.aborted
}

// Deliveries sums the sink dedup tables: distinct (source, offset) pairs
// delivered, duplicate deliveries observed, and holes — offsets a commit
// covered that never reached a sink, i.e. loss under a guarantee.
func (c *Coordinator[K]) Deliveries() (distinct, dups, holes int64) {
	for _, d := range c.dedups {
		distinct += d.Distinct()
		dups += d.Dups()
		holes += d.Holes()
	}
	return
}

// Aligner is one consumer task's counting barrier alignment: the task
// forwards a round's barrier once markers from every upstream producer
// arrived. By per-channel FIFO it has then processed every pre-barrier
// record, without ever blocking a channel. Owned by the task; the zero
// value is ready.
type Aligner struct {
	id    int64   // round being counted
	seen  int     // its markers so far
	done  int64   // last round aligned and forwarded
	start float64 // arrival of the round's first marker
}

// Arrive counts one marker of round id arriving at now, against the
// count the coordinator expects of this task (Expected; negative: the
// task is not part of the round, whose markers then never complete). It
// reports true exactly once per round, on the last expected marker,
// with the first-to-last stall; later markers of that round are
// dropped.
func (a *Aligner) Arrive(id int64, now float64, expected int) (aligned bool, stall float64) {
	if id == a.done {
		return false, 0
	}
	if id != a.id {
		a.id, a.seen, a.start = id, 0, now
	}
	a.seen++
	if expected < 0 || a.seen < expected {
		return false, 0
	}
	a.done = id
	return true, now - a.start
}
