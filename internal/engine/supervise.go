package engine

import (
	"fmt"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
)

// taskFailure is a task goroutine's dying message to the master.
type taskFailure struct {
	t      *task
	reason any
}

// supervisor is the master's per-vertex restart state.
type supervisor struct {
	backoff     *Backoff
	lastFailure time.Time
	degraded    bool
}

// reportFailure is called from a dying task goroutine's recover handler,
// before taskDone tears the task down. It must never block forever: if
// the failure queue is full (pathological crash storm) the failure is
// counted but the task stays down.
func (ex *execution) reportFailure(t *task, reason any) {
	ex.taskFailures.Add(1)
	ex.recordLifecycle(obs.KindTaskPanic, obs.Lifecycle{
		Vertex: t.id.Vertex, Task: t.id.String(), Reason: fmt.Sprint(reason),
	})
	ex.pendingRecovery.Add(1)
	select {
	case ex.failures <- taskFailure{t: t, reason: reason}:
	default:
		ex.pendingRecovery.Add(-1)
	}
}

// handleTaskFailure processes one crash on the master loop: the dead task
// leaves all routing tables, its queued records are counted as lost, and
// its vertex either gets a delayed restart or — past the restart cap —
// degrades and fails the job.
func (ex *execution) handleTaskFailure(f taskFailure, stopping bool) {
	ex.mu.Lock()
	g := ex.spec.graph
	for _, ek := range g.InEdges(f.t.id.Vertex) {
		pos := ex.edgePos[ek]
		for _, p := range ex.vertices[ek.Source].tasks {
			p.lane.gates[pos].removeConsumer(f.t)
		}
	}
	ex.mu.Unlock()
	ex.noteChurn("task failure")
	if log := f.t.lane.srcLog; log != nil {
		// Park the dead source's offset log for its replacement, which
		// replays the uncommitted suffix (harmless while stopping: the log
		// is simply never reattached).
		ex.logs.Orphan(log)
	}
	// Whatever was queued for the dead task is gone with it; the batch
	// slices never reached a consumer, so the master recycles them.
	// Close first so producers stop pushing, then drain: the dead task's
	// goroutine no longer pops (reportFailure runs during its unwind), so
	// Drain cannot race a Pop.
	lostByEdge := make(map[model.EdgeKey]int64)
	for _, ref := range f.t.inputs() {
		ref.cut()
		r := ref.ring
		for {
			b, ok := r.Drain()
			if !ok {
				break
			}
			if b.barrier == 0 {
				ex.lostRecords.Add(int64(len(b.items)))
				lostByEdge[f.t.inEdge(b)] += int64(len(b.items))
				ex.pool.put(b.poolHint, b.items)
			}
		}
	}
	// Audit the reclaim: one ring_drain event per inbound edge that lost
	// queued records, so the flight recorder shows where a crash cost
	// data instead of a bare execution-wide counter.
	for _, ek := range g.InEdges(f.t.id.Vertex) {
		if lost := lostByEdge[ek]; lost > 0 {
			ex.recordLifecycle(obs.KindRingDrain, obs.Lifecycle{
				Vertex:      f.t.id.Vertex,
				Task:        f.t.id.String(),
				Edge:        ek.String(),
				LostRecords: lost,
			})
		}
	}
	if stopping {
		ex.pendingRecovery.Add(-1)
		return
	}
	ex.superviseFailure(f.t.id.Vertex, f.reason)
}

// superviseFailure advances a vertex's restart state (master loop only):
// schedule a backoff-delayed restart, or degrade past the cap. The
// caller has already incremented pendingRecovery for this failure.
func (ex *execution) superviseFailure(vertex string, reason any) {
	sup := ex.supervisors[vertex]
	if sup == nil {
		sup = &supervisor{backoff: NewBackoff(
			ex.cfg.restart.backoff, ex.cfg.restart.backoffCap, 0.2,
			newSplitmix(ex.cfg.Seed^int64(len(vertex))*1099511628211),
		)}
		ex.supervisors[vertex] = sup
	}
	sup.lastFailure = time.Now()
	if sup.degraded || sup.backoff.Attempts() >= ex.cfg.restart.maxRestarts {
		sup.degraded = true
		ex.recordLifecycle(obs.KindVertexDegraded, obs.Lifecycle{
			Vertex: vertex, Reason: fmt.Sprint(reason), Attempts: sup.backoff.Attempts(),
		})
		ex.pendingRecovery.Add(-1)
		if ex.failErr == nil {
			ex.failErr = fmt.Errorf("engine: vertex %q degraded after %d failed restarts (last failure: %v)",
				vertex, ex.cfg.restart.maxRestarts, reason)
		}
		ex.stopOnce.Do(func() { close(ex.stopCh) })
		return
	}
	delay := sup.backoff.Next()
	ex.recordLifecycle(obs.KindTaskRestart, obs.Lifecycle{
		Vertex: vertex, Attempts: sup.backoff.Attempts(), BackoffSeconds: delay.Seconds(),
	})
	time.AfterFunc(delay, func() {
		select {
		case ex.restarts <- vertex:
		case <-ex.doneCh:
		}
	})
}

// restartTask replaces one crashed task of a vertex (master loop only).
func (ex *execution) restartTask(vertex string, stopping bool) {
	if stopping {
		ex.pendingRecovery.Add(-1)
		return
	}
	ex.mu.Lock()
	ex.accountUsageLocked()
	t, err := ex.createTask(vertex)
	if err == nil {
		ex.wireTaskLocked(t)
	}
	ex.mu.Unlock()
	if err != nil {
		// Placement failed (pool exhausted by concurrent scale-ups):
		// treat as another failure so the backoff keeps climbing toward
		// the degradation cap instead of spinning.
		ex.superviseFailure(vertex, err)
		return
	}
	ex.taskRestarts.Add(1)
	ex.launch(t)
	ex.noteChurn("restart rewired topology")
	if ex.guarantee.Enabled() {
		// At-least-once recovery: every source replays its uncommitted
		// suffix, re-covering whatever died queued at or in flight to the
		// crashed task. Flags are set before pendingRecovery drops so no
		// barrier can be injected ahead of the replays (sources service
		// replay requests before barrier requests).
		ex.requestReplayAll()
	}
	ex.pendingRecovery.Add(-1)
}
