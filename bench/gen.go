package main

import (
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/metrics/sketch"
)

// The load generator, the pass-through worker and the measuring sink of
// the engine workloads. The generator lives in SourceSpec.Emit and owns
// the schedule; the engine's own Schedule only supplies wake-ups.
//
// Every record's Value points at its sequence number (a *uint64 into a
// pointer-free chunk, or a *stamps for the one record in traceEvery the
// traced pass follows), so carrying the number costs no per-record
// allocation and no cell is ever written twice.

const (
	keySpace   = 4096    // distinct keys under key-based wiring
	seqChunk   = 1 << 15 // sequence numbers per chunk
	traceEvery = 64      // traced pass: one record in this many carries stamps
	maxStamps  = 1 << 18 // stamp arena size; later records go untraced
	// latencyAlpha is the relative accuracy of the latency sketches: ten
	// times finer than the repository default so that a reported
	// quantile moves in 0.2% steps rather than 2% steps.
	latencyAlpha = 0.001
	// padRecords is how many filler records the closed loop appends to its
	// stream. Under BatchingFixed a gate ships only full batches and the
	// engine never flushes a worker's trailing partial batch at the end
	// of a job, so without padding up to MaxBatchRecords-1 offered
	// records per worker would never reach the sink. Spread over every
	// key, this many fillers push at least one full batch through each
	// worker's gate; workers forward them and the sink ignores them.
	padRecords = 4 * keySpace
)

// padSeq marks a filler record.
var padSeq = ^uint64(0)

// stamps are the wall-clock marks of one traced record, in nanoseconds
// since the generator's origin. Each field is written by exactly one
// goroutine (source: due, emitEnter, emitReturn; worker: workEnter,
// workExit; sink: sinkEnter) and read after the execution ends.
type stamps struct {
	seq                                                        uint64
	due, emitEnter, emitReturn, workEnter, workExit, sinkEnter int64
}

// seqOf unpacks a record's Value.
func seqOf(v any) (uint64, *stamps) {
	switch p := v.(type) {
	case *uint64:
		return *p, nil
	case *stamps:
		return p.seq, p
	}
	panic("bench: record without a sequence number")
}

// generator emits the workload's records from inside SourceSpec.Emit.
// Open loop (period > 0): each call emits every record whose due time
// t0 + seq·period has passed, stamped EmitTime = due, so a stall delays
// later records and is charged to them. Closed loop (period == 0): each
// call emits one burst stamped with the current time; backpressure in
// ctx.Emit is the only pacing, and once length has passed the stream is
// padded (see padRecords) and ends. All state is owned by the source
// goroutine and read after the execution ends.
type generator struct {
	t0      time.Time
	period  time.Duration
	total   uint64 // open loop: records to offer
	burst   int    // closed loop: records per call
	length  time.Duration
	warm    time.Duration
	keys    []uint64 // key per sequence number (power-of-two length); nil: Key = seq
	stamped []stamps // traced pass only

	seq      uint64
	nextDue  time.Time
	chunk    []uint64
	nstamped int
	padded   bool

	lag    *sketch.Sketch // seconds between due and hand-off, measured records only
	inEmit time.Duration  // time spent in calls that emitted, measured span only
}

func newGenerator(t0 time.Time, period time.Duration, burst int, warm, length time.Duration, keys []uint64, traced bool) *generator {
	g := &generator{
		t0: t0, period: period, burst: burst, warm: warm, length: length, keys: keys,
		nextDue: t0, lag: sketch.New(latencyAlpha),
	}
	if period > 0 {
		g.total = uint64(length / period)
	}
	if traced {
		g.stamped = make([]stamps, maxStamps)
	}
	return g
}

// seededKeys draws the key sequence of a key-based workload.
func seededKeys(seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(rng.Intn(keySpace))
	}
	return keys
}

// emitOne hands record g.seq to the engine.
func (g *generator) emitOne(ctx *engine.Context, at time.Time) {
	seq := g.seq
	i := seq % seqChunk
	if i == 0 {
		g.chunk = make([]uint64, seqChunk)
	}
	g.chunk[i] = seq
	key := seq
	if g.keys != nil {
		key = g.keys[seq&uint64(len(g.keys)-1)]
	}
	g.seq++
	if g.stamped != nil && seq%traceEvery == 0 && g.nstamped < len(g.stamped) {
		st := &g.stamped[g.nstamped]
		g.nstamped++
		st.seq = seq
		st.due = at.Sub(g.t0).Nanoseconds()
		st.emitEnter = time.Since(g.t0).Nanoseconds()
		ctx.Emit(0, engine.Record{Key: key, Value: st, EmitTime: at})
		st.emitReturn = time.Since(g.t0).Nanoseconds()
		return
	}
	ctx.Emit(0, engine.Record{Key: key, Value: &g.chunk[i], EmitTime: at})
}

// emit is the SourceSpec.Emit callback.
func (g *generator) emit(ctx *engine.Context) {
	now := time.Now()
	if g.period == 0 {
		if g.seq > 0 && now.Sub(g.t0) >= g.length {
			for i := 0; i < padRecords && !g.padded; i++ {
				ctx.Emit(0, engine.Record{Key: uint64(i % keySpace), Value: &padSeq, EmitTime: now})
			}
			g.padded = true
			return
		}
		for i := 0; i < g.burst; i++ {
			g.emitOne(ctx, now)
		}
		if now.Sub(g.t0) >= g.warm {
			g.inEmit += time.Since(now)
		}
		return
	}
	start, emitted := now, 0
	for g.seq < g.total {
		if g.nextDue.After(now) || emitted%32 == 31 {
			// Pushing takes time; re-read the clock before deciding that
			// nothing more is due, and often enough that the lag recorded
			// below is not stale.
			now = time.Now()
			if g.nextDue.After(now) {
				break
			}
		}
		due := g.nextDue
		if due.Sub(g.t0) >= g.warm {
			g.lag.Add(now.Sub(due).Seconds())
		}
		g.emitOne(ctx, due)
		g.nextDue = due.Add(g.period)
		emitted++
	}
	if emitted > 0 && start.Sub(g.t0) >= g.warm {
		g.inEmit += time.Since(start)
	}
}

// worker is the pass-through UDF of the work vertex. Under key-based
// wiring it checks that each key's records arrive in sequence order.
type worker struct {
	t0      time.Time
	lastSeq []uint64 // per key: 1 + last sequence number seen; nil when not keyed
	// outOfOrder counts records that arrived behind a later record of
	// the same key (owned by the task goroutine, read after the run).
	outOfOrder uint64
}

func (w *worker) Process(ctx *engine.Context, rec engine.Record) {
	seq, st := seqOf(rec.Value)
	if seq == padSeq {
		ctx.Emit(0, rec)
		return
	}
	if w.lastSeq != nil {
		if w.lastSeq[rec.Key] > seq {
			w.outOfOrder++
		}
		w.lastSeq[rec.Key] = seq + 1
	}
	if st != nil {
		st.workEnter = time.Since(w.t0).Nanoseconds()
		ctx.Emit(0, rec)
		st.workExit = time.Since(w.t0).Nanoseconds()
		return
	}
	ctx.Emit(0, rec)
}

// window holds one second of sink observations. Latency fields are
// filed under the second the record was due (open loop) or emitted
// (closed loop); delivered under the second it arrived.
type window struct {
	lat       *sketch.Sketch
	n         uint64
	onTime    uint64
	sumNs     int64
	maxNs     int64
	delivered uint64
}

// sink is the measuring UDF of the sink vertex (parallelism 1, so one
// goroutine owns everything but the atomics).
type sink struct {
	t0      time.Time
	limit   time.Duration
	windows []window
	seen    []uint64 // bitmap over sequence numbers
	dups    uint64

	delivered atomic.Int64
	firstNs   atomic.Int64 // first arrival, ns since t0; 0 until then
}

func newSink(t0 time.Time, limit time.Duration, seconds int) *sink {
	s := &sink{t0: t0, limit: limit, windows: make([]window, seconds)}
	for i := range s.windows {
		s.windows[i].lat = sketch.New(latencyAlpha)
	}
	return s
}

func (s *sink) windowAt(d time.Duration) *window {
	i := int(d / time.Second)
	if i >= len(s.windows) {
		i = len(s.windows) - 1
	}
	return &s.windows[i]
}

func (s *sink) Process(_ *engine.Context, rec engine.Record) {
	seq, st := seqOf(rec.Value)
	if seq == padSeq {
		return
	}
	now := time.Now()
	sinceT0 := now.Sub(s.t0)
	if st != nil {
		st.sinkEnter = sinceT0.Nanoseconds()
	}
	word, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(s.seen)) <= word {
		s.seen = append(s.seen, 0)
	}
	if s.seen[word]&bit != 0 {
		s.dups++
	}
	s.seen[word] |= bit

	lat := now.Sub(rec.EmitTime)
	w := s.windowAt(rec.EmitTime.Sub(s.t0))
	w.lat.Add(lat.Seconds())
	w.n++
	w.sumNs += lat.Nanoseconds()
	if lat <= s.limit {
		w.onTime++
	}
	if lat.Nanoseconds() > w.maxNs {
		w.maxNs = lat.Nanoseconds()
	}
	s.windowAt(sinceT0).delivered++
	if s.delivered.Add(1) == 1 {
		s.firstNs.Store(sinceT0.Nanoseconds())
	}
}

// distinct returns how many different sequence numbers below n arrived.
func (s *sink) distinct(n uint64) uint64 {
	var c uint64
	for i, w := range s.seen {
		lo := uint64(i) * 64
		if lo >= n {
			break
		}
		if n-lo < 64 {
			w &= 1<<(n-lo) - 1
		}
		c += uint64(bits.OnesCount64(w))
	}
	return c
}
