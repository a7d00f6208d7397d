package engine

import "nephelix/internal/ckpt"

// This file is the engine's driver of the checkpoint protocol. The
// protocol itself — offset logs and their registry, the barrier
// coordinator, counting alignment, the commit sequence, sink dedup —
// lives once in internal/ckpt and is shared with the simulator (see
// DESIGN.md "Processing guarantees"). What is engine-specific, here and
// in master.go/worker.go/source.go, is how the protocol meets goroutines
// and rings: the master injects barriers and requests replays through
// atomics on the source's lane that its task goroutine services between
// emission rounds, barriers travel as gate.barrierShipments, replays re-emit
// through emitter.emit, the completing ack reaches the master over a
// channel, and an exhausted source lingers until its tail is committed.

// logEntry is what a source task's ckpt.Log retains per emission: the
// record as emitted (trace span cleared) plus the out-edge it left on,
// so a replay retraces the original routing.
type logEntry struct {
	rec  Record
	edge int32
}

// roundDone hands a completed round to the master loop (any task
// goroutine: the one whose ack completed it).
func (ex *execution) roundDone(r ckpt.Round, complete bool) {
	if !complete {
		return
	}
	select {
	case ex.ckptDone <- r:
	default:
		// The master has an uncollected completion (cannot happen with a
		// single in-flight checkpoint, but never block a task goroutine).
	}
}

// reportCheckpoint forwards what became of a round, if anything did, to
// telemetry and the flight recorder (master loop only).
func (ex *execution) reportCheckpoint(o ckpt.Outcome, ok bool) {
	if ok {
		ex.cfg.Telemetry.ObserveCheckpoint(ex.Now(), o, ex.cfg.Recorder)
	}
}

// requestReplayAll asks every live source to re-emit its log's
// uncommitted suffix (master, after a restart landed). A source attached
// later inherits its request from the orphaned log (newTask).
func (ex *execution) requestReplayAll() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.src == nil {
				continue
			}
			t.lane.replayReq.Store(true)
			// A parked source only acts on the flag once awake.
			t.pk.wake()
		}
	}
}
