package engine

import "nephelix/internal/ckpt"

// Test observation hooks on Execution: counters the engine keeps for its
// own accounting, read only by this package's tests.

// TaskRestarts returns how many crashed tasks the supervisor replaced.
func (e *Execution) TaskRestarts() int64 { return e.ex.taskRestarts.Load() }

// Checkpoints returns how many barrier checkpoints committed and how
// many aborted (superseded, topology churn, or store failure).
func (e *Execution) Checkpoints() (committed, aborted int64) {
	if e.ex.coord == nil {
		return 0, 0
	}
	return e.ex.coord.Counts()
}

// ReplayedRecords returns how many buffered records sources re-emitted
// during recoveries (each replay round counts its full uncommitted
// suffix, so one record can be counted across several rounds).
func (e *Execution) ReplayedRecords() int64 { return e.ex.replayedRecords.Load() }

// SourceRecords returns the number of distinct offsets sources ever
// assigned — the denominator for loss accounting under guarantees
// (replays re-emit existing offsets and do not move it). Zero when
// guarantees are disabled.
func (e *Execution) SourceRecords() int64 {
	if e.ex.logs == nil {
		return 0
	}
	return int64(e.ex.logs.Assigned())
}

// SinkDeliveries returns the sink-side dedup accounting: distinct
// (source, offset) pairs delivered, duplicate deliveries observed
// (suppressed before the UDF under ExactlyOnce, delivered under
// AtLeastOnce), and holes — offsets a checkpoint committed that never
// reached a sink, i.e. actual loss under guarantees. All zero when
// guarantees are disabled.
func (e *Execution) SinkDeliveries() (distinct, dups, holes int64) {
	if e.ex.coord == nil {
		return 0, 0, 0
	}
	return e.ex.coord.Deliveries()
}

// LingerTimeouts returns how many exhausted sources gave up waiting for
// a final checkpoint to commit their replay buffer; non-zero means the
// tail of the stream was never covered by a checkpoint.
func (e *Execution) LingerTimeouts() int64 { return e.ex.lingerTimeouts.Load() }

// LastCheckpoint returns the most recently committed checkpoint, if any.
func (e *Execution) LastCheckpoint() (ckpt.Checkpoint, bool) {
	if e.ex.ckptStore == nil {
		return ckpt.Checkpoint{}, false
	}
	ck, ok, err := e.ex.ckptStore.Latest()
	if err != nil {
		return ckpt.Checkpoint{}, false
	}
	return ck, ok
}
