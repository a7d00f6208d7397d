package engine

import (
	"fmt"
	"time"

	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/qos"
)

// masterLoop runs the control plane until shutdown.
func (ex *execution) masterLoop() {
	adjust := time.NewTicker(ex.cfg.AdjustmentInterval)
	defer adjust.Stop()
	quiesce := time.NewTicker(ex.cfg.MeasurementInterval)
	defer quiesce.Stop()
	var ckptC <-chan time.Time
	if ex.guarantee.Enabled() {
		ckptTicker := time.NewTicker(ex.cfg.CheckpointInterval)
		defer ckptTicker.Stop()
		ckptC = ckptTicker.C
	}

	var lastProcessed int64
	stableRounds := 0
	stopping := false

	finish := func() {
		ex.stopAllTasks()
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
		case f := <-ex.failures:
			ex.handleTaskFailure(f, stopping)
		case vertex := <-ex.restarts:
			ex.restartTask(vertex, stopping)
		case <-adjust.C:
			ex.adjustTick()
		case <-ckptC:
			if !stopping {
				ex.startCheckpoint()
			}
		case r := <-ex.ckptDone:
			// Persist, then prune (ckpt.Coordinator.Commit); a round that
			// raced churn or whose store failed comes back as an abort.
			ex.reportCheckpoint(ex.coord.Commit(r, ex.Now(), ex.emitted.Load(), ex.lostRecords.Load()), true)
		case <-quiesce.C:
			if !stopping {
				continue
			}
			cur := ex.totalProcessed()
			if cur == lastProcessed {
				stableRounds++
			} else {
				stableRounds = 0
			}
			lastProcessed = cur
			if stableRounds == 1 {
				// The pipeline has gone quiet: ship what size-only gates
				// still hold. A tail that reaches a consumer moves the
				// processed count and so restarts the stable run; finish
				// follows only a run in which nothing was left to ship.
				ex.flushTails()
			}
			if stableRounds >= 3 {
				finish()
				return
			}
		case <-ex.stopCh:
			stopping = true
			// Force path: stop sources immediately; workers drain via the
			// quiescence checks above.
			ex.stopSources()
		}
		// pendingRecovery keeps a crashed source counted until its
		// replacement launches, so a transient sourcesLeft == 0 during a
		// restart cannot end the job early.
		if !stopping && ex.sourcesLeft.Load() == 0 && ex.pendingRecovery.Load() == 0 {
			stopping = true
		}
	}
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
	var sourceEmitters []*emitter
	expect := make(map[*task]int)
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.draining.Load() {
				ex.mu.Unlock()
				return
			}
			if t.src != nil {
				// One barrier per offset shard: each shard emitter injects
				// the marker into its own rings and acks its own log's
				// watermark.
				sourceEmitters = append(sourceEmitters, t.emitters...)
				continue
			}
			// A worker aligns one barrier per live upstream producer
			// emitter, on every inbound edge (barriers broadcast to all
			// consumers regardless of wiring pattern). No task is draining
			// here — the loop above bailed otherwise — so every producer
			// counts.
			exp := 0
			for _, ek := range ex.spec.graph.InEdges(name) {
				for _, p := range ex.vertices[ek.Source].tasks {
					exp += len(p.emitters)
				}
			}
			expect[t] = exp
		}
	}
	if len(sourceEmitters) == 0 {
		ex.mu.Unlock()
		return
	}
	id := ex.coord.Begin(ex.Now(), expect, len(sourceEmitters))
	for _, e := range sourceEmitters {
		e.barrierReq.Store(id)
		e.pk.wake()
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

// totalProcessed sums all live tasks' processed counters.
func (ex *execution) totalProcessed() int64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	var total int64
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			total += t.processed.Load()
		}
	}
	return total
}

// newLoop builds the execution's master loop: it publishes each
// interval's summary, then observability sees it.
func (ex *execution) newLoop() (*master.Loop, error) {
	return master.New(ex.spec.graph, ex.spec.constraints, ex.cfg.Scaler, ex.cfg.Elastic, ex.probes,
		func(iv master.Interval) { ex.lastSummary.Store(iv.Summary) },
		obs.IntervalObserver(ex.cfg.Telemetry, ex.cfg.Recorder, ex.probes, ex.spec.constraints, ex.scrapeDataplane))
}

// adjustTick runs one adjustment interval (master loop only): what is
// the engine's own, then the master's Step. A failed step leaves the job
// running unscaled — a live job outlives its scaler — and is audited on
// the flight recorder.
func (ex *execution) adjustTick() {
	// Reset-on-success: a vertex that stayed up for BackoffResetAfter
	// since its last crash earns its base backoff back.
	for _, sup := range ex.supervisors {
		if !sup.degraded && !sup.lastFailure.IsZero() &&
			time.Since(sup.lastFailure) >= ex.cfg.BackoffResetAfter {
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
			for _, e := range t.emitters {
				changed := false
				for _, g := range e.gates {
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
					// flush pass re-evaluates its buffers, and its next park
					// is capped by the new deadlines.
					e.requestFlush()
				}
			}
		}
	}
}

// flushTails force-drains the gates of every worker task once a stopping
// job's processed count has stopped moving. A size-only (BatchingFixed)
// gate ships full batches only, so without this up to MaxBatchRecords−1
// records per consumer would sit in it until the force-quit and vanish
// uncounted. No more input is coming, so such gates have nothing left to
// wait for: they switch to instant flush — records still trickling
// through later hops cannot strand again — and their owners are asked
// for a flush pass. Sources drain their own gates when they exit.
func (ex *execution) flushTails() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.src != nil {
				continue
			}
			e := t.emitters[0]
			for _, g := range e.gates {
				if g.deadline() == noDeadline {
					g.setDeadline(0)
				}
			}
			e.requestFlush()
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
// them from all routing tables; they exit on their own after draining.
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
				for _, pe := range p.emitters {
					pe.gates[pos].removeConsumer(t)
				}
			}
		}
		t.draining.Store(true)
		// Wake the drained task so its park ends and the drain-idle clock
		// starts now rather than at the next housekeeping timeout.
		for _, e := range t.emitters {
			e.pk.wake()
		}
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
				for _, e := range t.emitters {
					e.pk.wake()
				}
			}
		}
	}
}

// stopAllTasks force-quits every remaining task.
func (ex *execution) stopAllTasks() {
	ex.mu.Lock()
	tasks := make([]*task, 0)
	for _, name := range ex.order {
		tasks = append(tasks, ex.vertices[name].tasks...)
	}
	ex.mu.Unlock()
	for _, t := range tasks {
		select {
		case <-t.quit:
		default:
			close(t.quit)
		}
	}
}
