package sim

import (
	"nephelix/internal/ckpt"
	"nephelix/internal/obs"
)

// This file is the simulator's driver of the checkpoint protocol. The
// protocol itself — offset logs and their registry, the barrier
// coordinator, counting alignment, the commit sequence, sink dedup —
// lives once in internal/ckpt and is shared with the engine (see
// DESIGN.md "Processing guarantees"). What is simulator-specific is how
// the protocol meets the event loop: a recurring evCheckpoint event
// injects, barriers are marker batches shipped through Sim.ship (one
// FIFO per channel) and consumed at the queue head at zero service
// cost, a task blocked in a send defers its barrier to resume(), the
// completing ack commits inline, and a respawn replays through
// Sim.emit. All on the deterministic event loop: the same seed yields
// byte-identical results, guarantees included.

// replayItem is what a source's ckpt.Log retains per emission: the item
// as the behavior emitted it (sim-internal pointers stripped) and its
// out-edge index.
type replayItem struct {
	it   Item
	edge int8
}

// guarState is the per-run processing-guarantee state (nil on Sim when
// guarantees are disabled, keeping the default data path untouched).
type guarState struct {
	suppress bool
	logs     *ckpt.Registry[replayItem]
	coord    *ckpt.Coordinator[*simTask]
	// store holds the last commit (Result.CommittedOffsets reads it).
	store *ckpt.MemStore
	// dedups tracks (source, offset) deliveries per sink vertex.
	dedups map[string]*ckpt.DedupTable

	// pendingResp counts scheduled-but-not-yet-executed respawns;
	// injection waits for recovery to settle, like the engine master.
	pendingResp int

	replayed int64
}

// initGuarantees builds the guarantee state from the config (New).
func (s *Sim) initGuarantees() {
	if !s.cfg.Guarantee.Enabled() {
		return
	}
	g := &guarState{
		suppress: s.cfg.Guarantee.Dedup(),
		logs:     ckpt.NewRegistry[replayItem](ckpt.ReplayBufferEntries),
		store:    ckpt.NewMemStore(1),
	}
	var dedups []*ckpt.DedupTable
	g.dedups, dedups = ckpt.SinkDedups(s.cfg.Graph)
	g.coord = ckpt.NewCoordinator[*simTask](g.store, g.logs, dedups)
	s.guar = g
}

// detachSrcLog parks a removed or killed source task's offset log for
// the vertex's next task, which keeps offsets monotonic across respawns
// and scale cycles and the uncommitted suffix replayable.
func (s *Sim) detachSrcLog(t *simTask) {
	if t.srcLog != nil {
		s.guar.logs.Orphan(t.srcLog)
		t.srcLog = nil
	}
}

// reportCkpt forwards what became of a round to telemetry and the
// flight recorder.
func (s *Sim) reportCkpt(o ckpt.Outcome, ok bool) {
	if ok {
		s.cfg.Telemetry.ObserveCheckpoint(s.now, o, s.cfg.Recorder)
	}
}

// noteSimChurn records a topology change: any in-flight checkpoint
// aborts, because its barrier cut no longer matches the routing it was
// injected into.
func (s *Sim) noteSimChurn(reason string) {
	if s.guar != nil {
		s.reportCkpt(s.guar.coord.Churn(reason))
	}
}

// checkpointTick injects one barrier checkpoint at the sources
// (recurring evCheckpoint event). Injection is skipped while recovery
// or a drain is in progress; an unfinished predecessor is superseded.
func (s *Sim) checkpointTick() {
	g := s.guar
	if g == nil || g.pendingResp > 0 {
		return
	}
	s.reportCkpt(g.coord.Abort("superseded by next interval"))
	for _, name := range s.vertexOrder {
		if len(s.vertices[name].draining) > 0 {
			return
		}
	}
	expect := make(map[*simTask]int)
	var sources []*simTask
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		for _, t := range v.tasks {
			if t.isSource {
				sources = append(sources, t)
				continue
			}
			n := 0
			for _, ek := range v.inEdges {
				n += len(s.vertices[ek.Source].tasks)
			}
			expect[t] = n
		}
	}
	if len(sources) == 0 {
		return
	}
	id := g.coord.Begin(s.now, expect, len(sources))
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RecordLifecycle(s.now, obs.KindCheckpointStart,
			obs.Lifecycle{CheckpointID: id})
	}
	for _, t := range sources {
		s.forwardBarrier(t, id)
	}
}

// forwardBarrier flushes t's gates (pre-barrier data must precede the
// marker in channel FIFO order) and ships one barrier marker to every
// consumer channel — all of them regardless of wiring pattern, because
// alignment counts producers, not partitions. A task blocked in a send
// defers to resume(). A source acknowledges here, at emission, with its
// log's next offset as the snapshot watermark (a blocked source cannot
// emit, so deferring moves the barrier, not the watermark).
func (s *Sim) forwardBarrier(t *simTask, id int64) {
	if t.blockedOut > 0 {
		t.pendingBarrier = id
		return
	}
	for _, g := range t.gates {
		s.flushGate(g)
	}
	for _, g := range t.gates {
		for _, ch := range g.Consumers() {
			s.ship(ch, append(s.getBatch(), Item{}), 0, id)
		}
	}
	if t.srcLog != nil {
		s.commitCkpt(s.guar.coord.AckSource(id, t.srcLog.ID(), t.srcLog.Next()))
	}
}

// handleBarrier processes one barrier marker reaching the head of t's
// input queue (maybeStart): per-producer FIFO guarantees every
// pre-barrier item of that producer was enqueued — and, being ahead in
// the queue, serviced — before the marker, so counting to the expected
// producer total makes the local cut consistent.
func (s *Sim) handleBarrier(t *simTask, id int64) {
	coord := s.guar.coord
	aligned, stall := t.align.Arrive(id, s.now, coord.Expected(id, t))
	if !aligned {
		return // still counting, or a stale or late marker
	}
	s.forwardBarrier(t, id)
	s.commitCkpt(coord.AckWorker(id, t, stall))
}

// commitCkpt commits the round the last ack completed (persist to the
// run's store, prune logs and dedup windows: ckpt.Coordinator.Commit).
func (s *Sim) commitCkpt(r ckpt.Round, complete bool) {
	if !complete {
		return
	}
	emitted := s.guar.logs.Assigned()
	s.reportCkpt(s.guar.coord.Commit(r, s.now, int64(emitted), s.killedItems), true)
}

// replayAll re-emits the uncommitted suffix of every live source log
// after a respawn (the engine's requestReplayAll): a crash anywhere in
// the pipeline may have dropped derived records of any source, so all
// uncommitted offsets are re-delivered. Sinks see duplicates for the
// records that did survive; the dedup tables absorb them.
func (s *Sim) replayAll() {
	if s.guar == nil {
		return
	}
	for _, name := range s.vertexOrder {
		for _, t := range s.vertices[name].tasks {
			if t.srcLog != nil {
				s.replayLog(t)
			}
		}
	}
}

// replayLog re-emits one source's uncommitted suffix through its gates.
// Replayed items keep their original (source, offset) lineage; emit
// skips stamping and logging while t.replaying is set.
func (s *Sim) replayLog(t *simTask) {
	suffix, first := t.srcLog.Uncommitted(nil)
	n := int64(len(suffix))
	if n == 0 {
		return
	}
	t.replaying = true
	for i := range suffix {
		it := suffix[i].it
		it.Offset = first + uint64(i)
		s.emit(t, int(suffix[i].edge), &it)
	}
	t.replaying = false
	s.guar.replayed += n
	s.cfg.Telemetry.AddReplayed(s.now, n)
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RecordLifecycle(s.now, obs.KindReplay, obs.Lifecycle{
			Vertex: t.vtx.jv.Name, Task: t.id.String(), CommittedOffsets: uint64(n),
		})
	}
}
