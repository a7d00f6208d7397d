package engine

import (
	"fmt"
	"time"

	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/qos"
)

// masterLoop runs the control plane until the job ends. The job is
// ending once every source task has exited and no restart is pending:
// from then on nothing restarts or scales, so no producer is wired to a
// task again, and each task leaves once its rings are closed and drained
// (endInputs). The loop returns once the last task has exited.
func (ex *execution) masterLoop() {
	adjust := time.NewTicker(ex.cfg.AdjustmentInterval)
	defer adjust.Stop()
	var ckptC <-chan time.Time
	if ex.guarantee.Enabled() {
		ckptTicker := time.NewTicker(ex.cfg.CheckpointInterval)
		defer ckptTicker.Stop()
		ckptC = ckptTicker.C
	}
	stopC := ex.stopCh
	stopping, ending := false, false

	finish := func() {
		ex.wg.Wait()
		ex.drainReports()
		ex.mu.Lock()
		ex.accountUsageLocked()
		ex.mu.Unlock()
		ex.recordLifecycle(obs.KindDropCounters, obs.Lifecycle{
			LostRecords:       ex.lostRecords.Load(),
			DroppedReports:    ex.droppedReports.Load(),
			DroppedNoConsumer: ex.dropNoConsumer.Load(),
		})
		close(ex.doneCh)
	}

	for {
		select {
		case msg := <-ex.reports:
			ex.consumeReport(msg)
		case <-ex.exits:
			// A task exited: the job may turn ending, or end.
		case f := <-ex.failures:
			ex.handleTaskFailure(f, stopping)
		case vertex := <-ex.restarts:
			ex.restartTask(vertex, stopping)
		case <-adjust.C:
			// An ending job runs no interval: nothing may scale behind a
			// final flag, and its tasks are leaving.
			if !ending {
				ex.adjustTick()
			}
		case <-ckptC:
			if !stopping {
				ex.startCheckpoint()
			}
		case r := <-ex.ckptDone:
			// Persist, then prune (ckpt.Coordinator.Commit); a round that
			// raced churn or whose store failed comes back as an abort.
			ex.reportCheckpoint(ex.coord.Commit(r, ex.Now(), ex.emitted.Load(), ex.lostRecords.Load()), true)
		case <-stopC:
			stopC, stopping = nil, true
			// Stop the sources; the end of input then cascades as on a
			// bounded job.
			ex.stopSources()
		}
		// pendingRecovery keeps a crashed source counted until its
		// replacement launches, so a transient sourcesLeft == 0 during a
		// restart cannot end the job early.
		if !ending && ex.sourcesLeft.Load() == 0 && ex.pendingRecovery.Load() == 0 {
			stopping, ending = true, true
		}
		// A crash while ending is settled (its queued records counted as
		// lost) before the job may end.
		if ending && ex.endInputs() == 0 && ex.pendingRecovery.Load() == 0 {
			finish()
			return
		}
	}
}

// endInputs raises the final flag on every task and returns how many
// tasks are left (master loop, ending job). No task is created once the
// job is ending, so a task's input has ended once the producers it has
// closed their rings, which each does as it exits (task.ended).
func (ex *execution) endInputs() (left int) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if !t.final.Swap(true) {
				t.pk.wake()
			}
			left++
		}
	}
	return left
}

// startCheckpoint injects one barrier checkpoint at the sources (master
// loop only). Injection needs a quiet topology: no crashed task awaiting
// restart, no draining task, at least one live source — otherwise this
// tick is skipped and the next one retries. A predecessor still in
// flight is superseded first (its alignment counts are stale anyway if
// it has not completed within a full interval).
func (ex *execution) startCheckpoint() {
	if ex.pendingRecovery.Load() != 0 {
		return
	}
	ex.reportCheckpoint(ex.coord.Abort("superseded by next interval"))
	ex.mu.Lock()
	var sources []*task
	expect := make(map[*task]int)
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.draining.Load() {
				ex.mu.Unlock()
				return
			}
			if t.src != nil {
				// Each source injects the marker into its own rings and acks
				// its own log's watermark.
				sources = append(sources, t)
				continue
			}
			// A worker aligns one barrier per live upstream producer task,
			// on every inbound edge (barriers broadcast to all consumers
			// regardless of wiring pattern). No task is draining here — the
			// loop above bailed otherwise — so every producer counts.
			exp := 0
			for _, ek := range ex.spec.graph.InEdges(name) {
				exp += len(ex.vertices[ek.Source].tasks)
			}
			expect[t] = exp
		}
	}
	if len(sources) == 0 {
		ex.mu.Unlock()
		return
	}
	id := ex.coord.Begin(ex.Now(), expect, len(sources))
	for _, t := range sources {
		t.lane.barrierReq.Store(id)
		t.pk.wake()
	}
	ex.mu.Unlock()
	ex.recordLifecycle(obs.KindCheckpointStart, obs.Lifecycle{CheckpointID: id})
}

// noteChurn records a topology change (master loop only): an in-flight
// checkpoint is aborted now, a completed-but-uncommitted one is discarded
// by the commit's generation check.
func (ex *execution) noteChurn(reason string) {
	if ex.guarantee.Enabled() {
		ex.reportCheckpoint(ex.coord.Churn(reason))
	}
}

// consumeReport feeds one task/channel report into the manager.
func (ex *execution) consumeReport(msg any) {
	switch m := msg.(type) {
	case taskReportMsg:
		ex.manager.ReportTask(m.report)
	case channelReportMsg:
		ex.manager.ReportChannel(m.report)
	}
}

// drainReports empties the report queue after tasks exited.
func (ex *execution) drainReports() {
	for {
		select {
		case msg := <-ex.reports:
			ex.consumeReport(msg)
		default:
			return
		}
	}
}

// newLoop builds the execution's master loop; observability sees each
// interval.
func (ex *execution) newLoop() (*master.Loop, error) {
	return master.New(ex.spec.graph, ex.spec.constraints, ex.cfg.Scaler, ex.cfg.Elastic, ex.probes,
		obs.IntervalObserver(ex.cfg.Telemetry, ex.cfg.Recorder, ex.probes, ex.spec.constraints, ex.scrapeDataplane))
}

// adjustTick runs one adjustment interval (master loop only): what is
// the engine's own, then the master's Step. A failed step leaves the job
// running unscaled — a live job outlives its scaler — and is audited on
// the flight recorder.
func (ex *execution) adjustTick() {
	// Reset-on-success: a vertex that stayed up for restart.resetAfter
	// since its last crash earns its base backoff back.
	for _, sup := range ex.supervisors {
		if !sup.degraded && !sup.lastFailure.IsZero() &&
			time.Since(sup.lastFailure) >= ex.cfg.restart.resetAfter {
			sup.backoff.Reset()
		}
	}
	if ex.guarantee.Enabled() {
		// Push the interval's suppressed-duplicate delta to telemetry.
		_, dups, _ := ex.coord.Deliveries()
		if d := dups - ex.lastDupCount; d > 0 {
			ex.cfg.Telemetry.AddDeduped(ex.Now(), d)
		}
		ex.lastDupCount = dups
	}
	if err := ex.loop.Step(ex); err != nil {
		if msg := err.Error(); !ex.stepErrs[msg] {
			ex.stepErrs[msg] = true
			ex.recordLifecycle(obs.KindScalerError, obs.Lifecycle{Reason: msg})
		}
	}
}

// Parallelism counts only live (non-draining) tasks: draining tasks left
// the routing tables and must not be double-counted by consecutive
// scale-down decisions (master.Runtime).
func (ex *execution) Parallelism() map[string]int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	par := make(map[string]int, len(ex.order))
	for _, name := range ex.order {
		par[name] = int(ex.vertices[name].count.Load())
	}
	return par
}

// Partials is the single manager's partial summary (master.Runtime).
func (ex *execution) Partials() []*qos.PartialSummary {
	return []*qos.PartialSummary{ex.manager.PartialSummary()}
}

// Scale applies one scaling action (master.Runtime).
func (ex *execution) Scale(vertex string, delta int) error {
	if ex.vertices[vertex] == nil {
		return fmt.Errorf("unknown vertex %q", vertex)
	}
	if delta > 0 {
		ex.scaleUp(vertex, delta)
		ex.scaleUps.Add(1)
	} else {
		ex.scaleDown(vertex, -delta)
		ex.scaleDowns.Add(1)
	}
	return nil
}

// SetDeadlines publishes new flush deadlines to all gates
// (master.Runtime).
func (ex *execution) SetDeadlines(deadlines map[model.EdgeKey]float64) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for key, dl := range deadlines {
		ex.deadlines[key] = time.Duration(dl * float64(time.Second))
	}
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			changed := false
			for _, g := range t.lane.gates {
				if ex.spec.edgeBatching(g.edge) != BatchingAdaptive {
					continue
				}
				if d, ok := ex.deadlines[g.edge]; ok {
					g.setDeadline(d)
					changed = true
				}
			}
			if changed {
				// A parked lane set its timer under the old deadline; a
				// flush pass re-evaluates its buffers, and its next park is
				// capped by the new deadlines.
				t.lane.requestFlush()
			}
		}
	}
}

// scaleUp adds n tasks to a vertex and wires them in.
func (ex *execution) scaleUp(vertex string, n int) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.accountUsageLocked()
	for i := 0; i < n; i++ {
		t, err := ex.createTask(vertex)
		if err != nil {
			return // pool exhausted; keep what we have
		}
		ex.wireTaskLocked(t)
		ex.launch(t)
		ex.noteChurn("scale-up")
	}
}

// scaleDown marks the newest n tasks of a vertex as draining and removes
// them from all routing tables. Each producer closes its ring into a
// removed task at its next flush pass, which it is asked for here; the
// task leaves once it has drained every ring (task.ended).
func (ex *execution) scaleDown(vertex string, n int) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	vs := ex.vertices[vertex]
	g := ex.spec.graph
	live := make([]*task, 0, len(vs.tasks))
	for _, t := range vs.tasks {
		if !t.draining.Load() {
			live = append(live, t)
		}
	}
	// Never drain below the vertex's minimum parallelism (and never to
	// zero): the routing tables must always have a live consumer.
	floor := vs.jv.MinParallelism
	if floor < 1 {
		floor = 1
	}
	for i := 0; i < n && len(live) > floor; i++ {
		t := live[len(live)-1]
		live = live[:len(live)-1]
		// Unroute from upstream producers.
		for _, ek := range g.InEdges(vertex) {
			pos := ex.edgePos[ek]
			for _, p := range ex.vertices[ek.Source].tasks {
				p.lane.gates[pos].removeConsumer(t)
				p.lane.requestFlush()
			}
		}
		t.draining.Store(true)
		t.pk.wake() // its rings may all be closed and drained already
		ex.noteChurn("scale-down")
	}
	vs.refreshCount()
}

// stopSources asks all source tasks to finish.
func (ex *execution) stopSources() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.src != nil {
				t.draining.Store(true)
				t.pk.wake()
			}
		}
	}
}
