package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/cluster"
	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/ring"
)

// Config tunes the engine. Zero values take the defaults noted per field;
// the intervals default to laptop-friendly values rather than the paper's
// cluster setup (1 s / 5 s), so short example runs still get several
// adjustment rounds.
type Config struct {
	// Workers and SlotsPerWorker bound the scheduler's slot pool
	// (defaults 16 × 4).
	Workers        int
	SlotsPerWorker int
	// MeasurementInterval and AdjustmentInterval pace the QoS plane
	// (defaults 250 ms and 1 s).
	MeasurementInterval time.Duration
	AdjustmentInterval  time.Duration
	// Elastic enables the reactive scaler.
	Elastic bool
	// Scaler configures the elastic scaler (DefaultScalerConfig when
	// zero).
	Scaler core.ScalerConfig
	// QueueCapacity bounds each producer→consumer SPSC ring in batches
	// (default 64, rounded up to a power of two); full rings exert
	// backpressure.
	QueueCapacity int
	// SourceShards is the number of concurrent emitter shards per source
	// task (default GOMAXPROCS-derived: GOMAXPROCS/2, clamped to [1, 4]).
	// Each shard runs its own pacing loop and, under guarantees, owns its
	// own offset log, so one source task can emit from several cores.
	SourceShards int
	// WheelResolution is the tick of the execution's flush-timer wheel
	// (default FlushTick). Batch-flush deadlines are delivered with this
	// granularity by one wheel goroutine instead of per-task tickers.
	WheelResolution time.Duration
	// MaxBatchRecords caps output batches (default 256).
	MaxBatchRecords int
	// FlushTick is the granularity of deadline flushing (default 1 ms).
	FlushTick time.Duration
	// DrainIdle is how long a draining task waits for stragglers before
	// exiting (default 300 ms).
	DrainIdle time.Duration
	// RecordInterval paces the execution's time series (Execution.Rows);
	// 0 disables recording.
	RecordInterval time.Duration
	// Seed drives task-local randomness.
	Seed int64
	// MaxTaskRestarts caps consecutive supervised restarts per vertex
	// (default 5). When a vertex's tasks keep crashing past the cap the
	// vertex is marked degraded and the job shuts down cleanly with an
	// error instead of deadlocking on a dead pipeline stage.
	MaxTaskRestarts int
	// RestartBackoff is the supervisor's initial restart delay
	// (default 25 ms); it doubles per consecutive failure.
	RestartBackoff time.Duration
	// RestartBackoffCap bounds the exponential restart delay
	// (default 1 s).
	RestartBackoffCap time.Duration
	// BackoffResetAfter is the stable-run period after which a vertex's
	// restart backoff resets to base (default AdjustmentInterval), so a
	// long-lived task that panics rarely doesn't escalate toward the
	// degradation cap forever. Checked once per adjustment tick, so the
	// effective resolution is one AdjustmentInterval.
	BackoffResetAfter time.Duration
	// Guarantee selects the processing-guarantee level (default
	// AtMostOnce: crashes lose records, as before). AtLeastOnce enables
	// source offsets, barrier checkpoints and replay-on-restart;
	// ExactlyOnce additionally deduplicates at the sinks.
	Guarantee ckpt.Guarantee
	// CheckpointInterval paces barrier injection when Guarantee is
	// enabled (default 250 ms).
	CheckpointInterval time.Duration
	// ReplayBufferRecords bounds each source's replay buffer (default
	// 65536); at the bound the source pauses emission until a checkpoint
	// commits — backpressure, never loss.
	ReplayBufferRecords int
	// CheckpointStore persists committed checkpoints (default: an
	// in-memory store keeping the last 8). Ignored when Guarantee is
	// AtMostOnce.
	CheckpointStore ckpt.Store
	// Recorder, when set, receives the execution's flight-recorder
	// events: task lifecycle (start, panic, backoff restart, vertex
	// degradation), drop counters at shutdown, and one scaling_decision
	// audit event per adjustment interval with a decision.
	Recorder *obs.Recorder
	// Tracer, when set, head-samples source emissions and attributes
	// their end-to-end latency per hop. Nil disables tracing at
	// near-zero cost.
	Tracer *obs.Tracer
	// Telemetry, when set, is scraped every adjustment interval (QoS
	// summary, scaler decision, Go runtime) and scores the Kingman
	// queue-wait predictions against the next interval's measurements.
	// Nil disables telemetry at zero cost.
	Telemetry *obs.Telemetry
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = 4
	}
	if c.MeasurementInterval <= 0 {
		c.MeasurementInterval = 250 * time.Millisecond
	}
	if c.AdjustmentInterval <= 0 {
		c.AdjustmentInterval = time.Second
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 256
	}
	if c.FlushTick <= 0 {
		c.FlushTick = time.Millisecond
	}
	if c.SourceShards <= 0 {
		c.SourceShards = flagSourceShards // -engine.shards (see flags.go)
	}
	if c.SourceShards <= 0 {
		s := runtime.GOMAXPROCS(0) / 2
		if s < 1 {
			s = 1
		}
		if s > 4 {
			s = 4
		}
		c.SourceShards = s
	}
	if c.WheelResolution <= 0 {
		c.WheelResolution = flagWheelResolution // -engine.wheel (see flags.go)
	}
	if c.WheelResolution <= 0 {
		c.WheelResolution = c.FlushTick
	}
	if c.DrainIdle <= 0 {
		c.DrainIdle = 300 * time.Millisecond
	}
	if c.Scaler.Strategy == (core.StrategyConfig{}) {
		c.Scaler = core.DefaultScalerConfig()
		c.Scaler.InactivityIntervals = 2
	}
	if c.MaxTaskRestarts <= 0 {
		c.MaxTaskRestarts = 5
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 25 * time.Millisecond
	}
	if c.RestartBackoffCap <= 0 {
		c.RestartBackoffCap = time.Second
	}
	if c.BackoffResetAfter <= 0 {
		c.BackoffResetAfter = c.AdjustmentInterval
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 250 * time.Millisecond
	}
	if c.ReplayBufferRecords <= 0 {
		c.ReplayBufferRecords = 1 << 16
	}
	if c.Guarantee.Enabled() && c.CheckpointStore == nil {
		c.CheckpointStore = ckpt.NewMemStore(8)
	}
	return c
}

// Engine creates executions from job specs.
type Engine struct {
	cfg Config
}

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Submit validates the spec, builds the runtime graph, starts all task
// goroutines and the master loop, and returns the running execution.
// probes may be nil.
func (e *Engine) Submit(spec *JobSpec, probes *probe.ProbeSet) (*Execution, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if probes == nil {
		probes = probe.NewProbeSet()
	}
	rm, err := cluster.NewResourceManager(e.cfg.Workers, e.cfg.SlotsPerWorker)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ex := &execution{
		cfg:         e.cfg,
		spec:        spec,
		probes:      probes,
		rm:          rm,
		scheduler:   cluster.NewScheduler(rm),
		manager:     qos.NewManager(managerConfigFor(e.cfg)),
		vertices:    make(map[string]*vertexState),
		edgePos:     make(map[model.EdgeKey]int),
		modes:       make(map[string]model.LatencyMode),
		deadlines:   make(map[model.EdgeKey]time.Duration),
		reports:     make(chan any, 4096),
		failures:    make(chan taskFailure, 1024),
		restarts:    make(chan string, 1024),
		supervisors: make(map[string]*supervisor),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	ex.wheel = newFlushWheel(e.cfg.WheelResolution)
	ex.sloTargets = obs.SLOTargetsFromConstraints(spec.constraints)
	ex.controller = qos.NewBatchingController(e.cfg.Scaler.Strategy.Batching)
	ex.controller.SetElastic(e.cfg.Elastic)
	ex.guarantee = e.cfg.Guarantee
	if ex.guarantee.Enabled() {
		ex.suppressDups = ex.guarantee.Dedup()
		ex.ckptStore = e.cfg.CheckpointStore
		// Logs and dedup tables must exist before bootstrap creates tasks.
		ex.logs = ckpt.NewRegistry[logEntry](e.cfg.ReplayBufferRecords)
		var dedups []*ckpt.DedupTable
		ex.dedups, dedups = sinkDedups(spec)
		ex.coord = ckpt.NewCoordinator[*task](ex.ckptStore, ex.logs, dedups)
		ex.ckptDone = make(chan ckpt.Round, 1)
	}
	if e.cfg.Elastic {
		if len(spec.constraints) == 0 {
			return nil, fmt.Errorf("engine: elastic execution needs at least one constraint")
		}
		sc, err := core.NewElasticScaler(e.cfg.Scaler, spec.graph, spec.constraints)
		if err != nil {
			return nil, err
		}
		ex.scaler = sc
	}
	if err := ex.bootstrap(); err != nil {
		return nil, err
	}
	ex.start = time.Now()
	ex.meter.Advance(0, 0, 0)
	go ex.wheel.run()
	ex.launchAll()
	go ex.masterLoop()
	return &Execution{ex: ex}, nil
}

// managerConfigFor derives the QoS history length from the intervals.
func managerConfigFor(cfg Config) qos.ManagerConfig {
	m := qos.DefaultManagerConfig()
	if n := int(cfg.AdjustmentInterval / cfg.MeasurementInterval); n >= 1 {
		m.HistoryLength = n
	}
	return m
}

// vertexState groups a vertex's tasks (master-owned; count holds the
// number of live, i.e. non-draining, tasks and is read lock-free by
// source tasks).
type vertexState struct {
	jv        *model.JobVertex
	tasks     []*task
	nextIndex int
	count     atomic.Int32
	// tail marks a vertex under a percentile constraint: its tasks report
	// the distribution of their queue waits, not only the mean.
	tail bool
}

// refreshCount recomputes the live-task count (caller holds ex.mu).
func (vs *vertexState) refreshCount() {
	n := int32(0)
	for _, t := range vs.tasks {
		if !t.draining.Load() {
			n++
		}
	}
	vs.count.Store(n)
}

// execution is the runtime of one submitted job.
type execution struct {
	cfg  Config
	spec *JobSpec

	start time.Time

	// mu guards vertices' task slices, deadlines and the scheduler/meter.
	mu        sync.Mutex
	vertices  map[string]*vertexState
	order     []string
	scheduler *cluster.Scheduler
	rm        *cluster.ResourceManager
	meter     cluster.UsageMeter
	retired   int64 // busyNs of exited tasks

	edgePos map[model.EdgeKey]int
	modes   map[string]model.LatencyMode

	deadlines  map[model.EdgeKey]time.Duration
	controller *qos.BatchingController
	manager    *qos.Manager
	scaler     *core.ElasticScaler

	probes  *probe.ProbeSet
	reports chan any

	// sloTargets are the per-constraint SLO targets derived from the job
	// spec's constraints, used when no bounded probe covers them.
	sloTargets []obs.SLOTarget

	// pool recycles batch slices across all tasks of the execution (see
	// pool.go for the ownership contract); poolSeq hands out shard hints
	// round-robin at task/emitter construction.
	pool    batchPool
	poolSeq atomic.Int64

	// wheel is the execution's single flush-timer wheel (wheel.go):
	// emitters arm flush deadlines on it instead of running per-task
	// FlushTick tickers.
	wheel *flushWheel

	// dp is the data-plane sampler's interval state (dataplane.go);
	// master goroutine only, lazily built on the first scrape.
	dp *dataplaneScraper

	// Supervision: tasks announce panics on failures (before their exit
	// hook runs), the master schedules restarts onto restarts after a
	// backoff delay. supervisors is master-goroutine-only state.
	failures    chan taskFailure
	restarts    chan string
	supervisors map[string]*supervisor

	emitted        atomic.Int64
	droppedReports atomic.Int64
	scaleUps       atomic.Int64
	scaleDowns     atomic.Int64

	taskFailures atomic.Int64
	taskRestarts atomic.Int64
	lostRecords  atomic.Int64

	// Processing guarantees (nil/zero when cfg.Guarantee is AtMostOnce),
	// all immutable after Submit. The protocol state lives in internal/ckpt:
	// coord owns the rounds, the topology generation and the commit; logs
	// the source offset logs (its lock is a leaf under ex.mu); dedups maps
	// sink vertex → shared dedup table. The task goroutine whose ack
	// completes a round hands it to the master over ckptDone.
	guarantee    ckpt.Guarantee
	suppressDups bool
	ckptStore    ckpt.Store
	coord        *ckpt.Coordinator[*task]
	ckptDone     chan ckpt.Round
	logs         *ckpt.Registry[logEntry]
	dedups       map[string]*ckpt.DedupTable
	// lastDupCount is master-loop-only (telemetry delta).
	lastDupCount int64

	replayedRecords atomic.Int64
	lingerTimeouts  atomic.Int64
	// dropNoConsumer counts records dropped because a gate had no
	// consumers; gates hold a pointer to it (they have no execution
	// back-pointer). Zero in healthy executions.
	dropNoConsumer atomic.Int64
	// pendingRecovery counts crashed tasks whose restart has not landed
	// yet. Incremented by the crashing task before its exit hook
	// decrements the live counters, so the master never mistakes a
	// crashed-but-restarting source for "all sources finished".
	pendingRecovery atomic.Int32

	lastSummary atomic.Pointer[qos.Summary]

	// failErr is the terminal failure (degraded vertex); written by the
	// master loop before doneCh closes, read after Wait returns.
	failErr error

	// adjustRounds counts adjustment ticks (master loop only); it is the
	// interval ordinal on recorded scaling decisions.
	adjustRounds int

	rowsMu sync.Mutex
	rows   []Row

	wg          sync.WaitGroup
	sourcesLeft atomic.Int32
	stopOnce    sync.Once
	stopCh      chan struct{}
	doneCh      chan struct{}
}

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

// Row is one record-interval sample of a live execution's time series.
type Row struct {
	// Elapsed is the time since execution start.
	Elapsed time.Duration
	// Probes holds per-probe (count, mean, p95) for the interval.
	Probes map[string]ProbeSample
	// Parallelism is the live task count per vertex.
	Parallelism map[string]int
	// Emitted is the cumulative source-emission count.
	Emitted int64
}

// ProbeSample is one probe's interval measurement.
type ProbeSample struct {
	Count int64
	Mean  float64
	P95   float64
}

// report messages from tasks to the master.
type taskReportMsg struct{ report qos.TaskReport }
type channelReportMsg struct{ report qos.ChannelReport }

// offerReport enqueues a report without ever blocking a task.
func (ex *execution) offerReport(msg any) {
	select {
	case ex.reports <- msg:
	default:
		ex.droppedReports.Add(1)
	}
}

// currentDeadline returns the master's current deadline for an edge.
func (ex *execution) currentDeadline(edge model.EdgeKey) (time.Duration, bool) {
	d, ok := ex.deadlines[edge]
	return d, ok
}

// parallelismOf returns a vertex's live task count (lock-free).
func (ex *execution) parallelismOf(vertex string) int {
	if vs, ok := ex.vertices[vertex]; ok {
		return int(vs.count.Load())
	}
	return 0
}

// bootstrap builds the initial tasks and wiring (pre-start, single
// goroutine).
func (ex *execution) bootstrap() error {
	g := ex.spec.graph
	tail := qos.TailVertices(ex.spec.constraints)
	for _, jv := range g.Vertices() {
		ex.modes[jv.Name] = jv.LatencyMode
		for pos, ek := range g.OutEdges(jv.Name) {
			ex.edgePos[ek] = pos
		}
		ex.vertices[jv.Name] = &vertexState{jv: jv, tail: tail[jv.Name]}
		ex.order = append(ex.order, jv.Name)
	}
	for _, name := range ex.order {
		vs := ex.vertices[name]
		for i := 0; i < vs.jv.Parallelism; i++ {
			if _, err := ex.createTask(name); err != nil {
				return err
			}
		}
	}
	// Wire all edges producer × consumer: one SPSC ring per producer
	// emitter → consumer pair.
	for _, e := range g.Edges() {
		pos := ex.edgePos[e.Key()]
		for _, p := range ex.vertices[e.Source].tasks {
			for _, c := range ex.vertices[e.Target].tasks {
				ex.connect(p, pos, e.Key(), c)
			}
		}
	}
	return nil
}

// connect wires one producer task to one consumer task on an edge: one
// SPSC ring per producer emitter, registered with the consumer's poll
// set (bootstrap or master goroutine). Each ring's push side belongs to
// exactly one emitter goroutine and its pop side to the consumer's, so
// the SPSC discipline holds by construction.
func (ex *execution) connect(p *task, pos int, ek model.EdgeKey, c *task) {
	for _, e := range p.emitters {
		r := ring.New[batch](ex.cfg.QueueCapacity)
		e.gates[pos].Add(&channelRef{
			id:   model.ChannelID{Edge: ek, Producer: p.id.Index, Consumer: c.id.Index},
			to:   c,
			ring: r,
		})
		c.addInRing(r)
	}
}

// createTask builds and places one task (caller holds no lock during
// bootstrap; scaling calls hold ex.mu).
func (ex *execution) createTask(vertex string) (*task, error) {
	vs := ex.vertices[vertex]
	id := model.TaskID{Vertex: vertex, Index: vs.nextIndex}
	vs.nextIndex++
	var udf UDF
	var src *SourceSpec
	if factory, ok := ex.spec.udfs[vertex]; ok {
		udf = factory(id.Index)
	} else {
		s := ex.spec.sources[vertex]
		src = &s
	}
	if _, err := ex.scheduler.Place(id); err != nil {
		return nil, fmt.Errorf("engine: placing %s: %w", id, err)
	}
	t := newTask(ex, id, udf, src, ex.cfg.Seed+int64(len(vs.tasks))*7919+int64(vs.nextIndex))
	if vs.tail {
		t.reporter.TrackQueueWait()
	}
	vs.tasks = append(vs.tasks, t)
	vs.refreshCount()
	return t, nil
}

// launchAll starts every bootstrapped task.
func (ex *execution) launchAll() {
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			ex.launch(t)
		}
	}
}

// recordLifecycle emits one lifecycle event to the configured flight
// recorder (no-op when none is set). Event time is seconds since
// execution start, matching the simulator's virtual clock convention.
func (ex *execution) recordLifecycle(kind string, lc obs.Lifecycle) {
	ex.cfg.Recorder.RecordLifecycle(time.Since(ex.start).Seconds(), kind, lc)
}

// launch starts one task goroutine.
func (ex *execution) launch(t *task) {
	ex.recordLifecycle(obs.KindTaskStart, obs.Lifecycle{Vertex: t.id.Vertex, Task: t.id.String()})
	ex.wg.Add(1)
	if t.src != nil {
		ex.sourcesLeft.Add(1)
		go t.runSource()
		return
	}
	go t.run()
}

// taskDone is each task goroutine's exit hook.
func (ex *execution) taskDone(t *task) {
	ex.mu.Lock()
	ex.accountUsageLocked()
	ex.retired += t.busyNs.Load()
	// Unplace frees the slot; a nil map hit can only mean a double exit,
	// which the registry removal below would also surface.
	_ = ex.scheduler.Unplace(t.id)
	vs := ex.vertices[t.id.Vertex]
	for i, tt := range vs.tasks {
		if tt == t {
			vs.tasks = append(vs.tasks[:i], vs.tasks[i+1:]...)
			break
		}
	}
	vs.refreshCount()
	ex.mu.Unlock()
	// Unblock producers shipping into this task's queue; reportFailure
	// (if any) already ran, so pendingRecovery covers the gap before the
	// source counter drops.
	close(t.dead)
	if t.src != nil {
		ex.sourcesLeft.Add(-1)
	}
	ex.wg.Done()
}

// accountUsageLocked integrates task usage (caller holds ex.mu).
func (ex *execution) accountUsageLocked() {
	total := 0
	for _, name := range ex.order {
		total += len(ex.vertices[name].tasks)
	}
	ex.meter.Advance(time.Since(ex.start).Seconds(), total, ex.rm.Leased())
}

// masterLoop runs the control plane until shutdown.
func (ex *execution) masterLoop() {
	adjust := time.NewTicker(ex.cfg.AdjustmentInterval)
	defer adjust.Stop()
	quiesce := time.NewTicker(ex.cfg.MeasurementInterval)
	defer quiesce.Stop()
	var recordC <-chan time.Time
	if ex.cfg.RecordInterval > 0 {
		record := time.NewTicker(ex.cfg.RecordInterval)
		defer record.Stop()
		recordC = record.C
	}
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
		ex.wheel.stop()
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
		case <-recordC:
			ex.recordTick()
		case <-ckptC:
			if !stopping {
				ex.startCheckpoint()
			}
		case r := <-ex.ckptDone:
			// Persist, then prune (ckpt.Coordinator.Commit); a round that
			// raced churn or whose store failed comes back as an abort.
			now := ex.sinceStart(time.Now())
			ex.reportCheckpoint(ex.coord.Commit(r, now, ex.emitted.Load(), ex.lostRecords.Load()), true)
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
	id := ex.coord.Begin(ex.sinceStart(time.Now()), expect, len(sourceEmitters))
	for _, e := range sourceEmitters {
		e.barrierReq.Store(id)
		e.wake()
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
			for _, pe := range p.emitters {
				pe.gates[pos].removeConsumer(f.t)
			}
		}
	}
	ex.mu.Unlock()
	ex.noteChurn("task failure")
	for _, e := range f.t.emitters {
		if e.srcLog != nil {
			// Park the dead source shard's offset log for its replacement,
			// which replays the uncommitted suffix (harmless while stopping:
			// the log is simply never reattached).
			ex.logs.Orphan(e.srcLog)
		}
		// The dying goroutine's defer closed these rings already; repeat
		// for any consumer that was wired in mid-crash (Close is
		// idempotent).
		e.closeOutRings()
	}
	// Whatever was queued for the dead task is gone with it; the batch
	// slices never reached a consumer, so the master recycles them.
	// Close first so producers stop pushing, then drain: the dead task's
	// goroutine no longer pops (reportFailure runs during its unwind), so
	// Drain cannot race a Pop.
	lostByEdge := make(map[model.EdgeKey]int64)
	for _, r := range f.t.ringsSnapshot() {
		r.Close()
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
			ex.cfg.RestartBackoff, ex.cfg.RestartBackoffCap, 0.2,
			rand.NewSource(ex.cfg.Seed^int64(len(vertex))*1099511628211),
		)}
		ex.supervisors[vertex] = sup
	}
	sup.lastFailure = time.Now()
	if sup.degraded || sup.backoff.Attempts() >= ex.cfg.MaxTaskRestarts {
		sup.degraded = true
		ex.recordLifecycle(obs.KindVertexDegraded, obs.Lifecycle{
			Vertex: vertex, Reason: fmt.Sprint(reason), Attempts: sup.backoff.Attempts(),
		})
		ex.pendingRecovery.Add(-1)
		if ex.failErr == nil {
			ex.failErr = fmt.Errorf("engine: vertex %q degraded after %d failed restarts (last failure: %v)",
				vertex, ex.cfg.MaxTaskRestarts, reason)
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

// wireTaskLocked connects a fresh task to live upstream producers and
// downstream consumers (caller holds ex.mu).
func (ex *execution) wireTaskLocked(t *task) {
	g := ex.spec.graph
	vertex := t.id.Vertex
	for _, ek := range g.InEdges(vertex) {
		pos := ex.edgePos[ek]
		for _, p := range ex.vertices[ek.Source].tasks {
			if p == t || p.draining.Load() {
				continue
			}
			ex.connect(p, pos, ek, t)
		}
	}
	for _, ek := range g.OutEdges(vertex) {
		pos := ex.edgePos[ek]
		for _, c := range ex.vertices[ek.Target].tasks {
			if c.draining.Load() {
				continue
			}
			ex.connect(t, pos, ek, c)
		}
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

// recordTick appends one time-series row.
func (ex *execution) recordTick() {
	row := Row{
		Elapsed:     time.Since(ex.start),
		Probes:      make(map[string]ProbeSample),
		Parallelism: make(map[string]int),
		Emitted:     ex.emitted.Load(),
	}
	for _, name := range ex.probes.Names() {
		count, mean, p95 := ex.probes.Probe(name).RecSnapshot()
		row.Probes[name] = ProbeSample{Count: count, Mean: mean, P95: p95}
	}
	ex.mu.Lock()
	for _, name := range ex.order {
		row.Parallelism[name] = int(ex.vertices[name].count.Load())
	}
	ex.mu.Unlock()
	ex.rowsMu.Lock()
	ex.rows = append(ex.rows, row)
	ex.rowsMu.Unlock()
}

// adjustTick runs one adjustment interval: summary, batching deadlines,
// scaling.
func (ex *execution) adjustTick() {
	for _, name := range ex.probes.Names() {
		ex.probes.Probe(name).AdjSnapshot()
	}
	// Current parallelism counts only live (non-draining) tasks: draining
	// tasks left the routing tables and must not be double-counted by
	// consecutive scale-down decisions.
	ex.mu.Lock()
	par := make(map[string]int, len(ex.order))
	for _, name := range ex.order {
		par[name] = int(ex.vertices[name].count.Load())
	}
	ex.mu.Unlock()

	summary := qos.MergePartials(par, ex.manager.PartialSummary())
	ex.lastSummary.Store(summary)

	// Reset-on-success: a vertex that stayed up for BackoffResetAfter
	// since its last crash earns its base backoff back (adjustTick runs
	// on the master loop, same goroutine as the supervisors).
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
			ex.cfg.Telemetry.AddDeduped(time.Since(ex.start).Seconds(), d)
		}
		ex.lastDupCount = dups
	}

	if len(ex.spec.constraints) > 0 {
		deadlines := ex.controller.Update(summary, ex.spec.constraints)
		ex.applyDeadlines(deadlines)
	}

	var decision *core.Decision
	if ex.scaler != nil {
		ex.adjustRounds++
		if d, err := ex.scaler.Decide(summary, par); err == nil {
			decision = d
		}
	}
	// Telemetry scrapes even without an elastic scaler (decision nil),
	// and before recording so the audit event carries the drift flags.
	drift := ex.cfg.Telemetry.ObserveInterval(time.Since(ex.start).Seconds(), summary, decision, par)
	ex.scrapeShardGauges()
	ex.scrapeDataplane()
	ex.cfg.Telemetry.ObserveSLOs(time.Since(ex.start).Seconds(), ex.probes, ex.sloTargets, ex.cfg.Recorder)
	if decision == nil {
		return
	}
	sd := obs.NewScalingDecision(ex.adjustRounds, decision, par)
	sd.Drift = drift
	ex.cfg.Recorder.RecordDecision(time.Since(ex.start).Seconds(), sd)
	for _, a := range decision.Actions {
		if d := a.Delta(); d > 0 {
			ex.scaleUp(a.Vertex, d)
			ex.scaleUps.Add(1)
		} else if d < 0 {
			ex.scaleDown(a.Vertex, -d)
			ex.scaleDowns.Add(1)
		}
	}
}

// scrapeShardGauges publishes per-shard source emission counters each
// adjustment interval so the dash can show shard balance.
func (ex *execution) scrapeShardGauges() {
	store := ex.cfg.Telemetry.Store()
	if store == nil {
		return
	}
	now := time.Since(ex.start).Seconds()
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			if t.src == nil {
				continue
			}
			for _, e := range t.emitters {
				store.Gauge("nephelix_source_shard_emitted", map[string]string{
					"vertex": name,
					"task":   t.id.String(),
					"shard":  strconv.Itoa(e.shard),
				}).Set(now, float64(e.emitCount.Load()))
			}
		}
	}
}

// applyDeadlines publishes new flush deadlines to all gates.
func (ex *execution) applyDeadlines(deadlines map[model.EdgeKey]float64) {
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
					// Wheel entries armed under the old deadline may now be
					// stale; a flush pass re-evaluates the buffers and
					// re-arms at the new deadlines.
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
		t.wake()
		for _, e := range t.emitters {
			e.wake()
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
					e.wake()
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

// Execution is the public handle on a submitted job.
type Execution struct {
	ex *execution
}

// Wait blocks until the job finishes (sources exhausted and pipelines
// drained), Stop is called, or the context is cancelled. If the job
// failed — a vertex degraded past its restart cap — Wait returns that
// error on every call.
func (e *Execution) Wait(ctx context.Context) error {
	select {
	case <-e.ex.doneCh:
		return e.ex.failErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the terminal failure after the execution finished (nil
// while running or after a clean finish).
func (e *Execution) Err() error {
	select {
	case <-e.ex.doneCh:
		return e.ex.failErr
	default:
		return nil
	}
}

// Stop initiates a graceful shutdown: sources stop, pipelines drain.
func (e *Execution) Stop() {
	e.ex.stopOnce.Do(func() { close(e.ex.stopCh) })
}

// Done reports whether the execution has finished.
func (e *Execution) Done() bool {
	select {
	case <-e.ex.doneCh:
		return true
	default:
		return false
	}
}

// Parallelism returns a vertex's current live task count.
func (e *Execution) Parallelism(vertex string) int { return e.ex.parallelismOf(vertex) }

// Emitted returns the total number of source emissions.
func (e *Execution) Emitted() int64 { return e.ex.emitted.Load() }

// TaskHours returns the resource consumption so far.
func (e *Execution) TaskHours() float64 {
	e.ex.mu.Lock()
	defer e.ex.mu.Unlock()
	e.ex.accountUsageLocked()
	return e.ex.meter.TaskHours()
}

// Summary returns the latest global QoS summary (nil before the first
// adjustment interval).
func (e *Execution) Summary() *qos.Summary { return e.ex.lastSummary.Load() }

// ScaleEvents returns the numbers of scale-up and scale-down actions.
func (e *Execution) ScaleEvents() (ups, downs int64) {
	return e.ex.scaleUps.Load(), e.ex.scaleDowns.Load()
}

// DroppedReports returns how many QoS reports were shed under load
// (diagnostics; sheds accuracy, never data).
func (e *Execution) DroppedReports() int64 { return e.ex.droppedReports.Load() }

// TaskFailures returns how many task goroutines died to a recovered UDF
// panic.
func (e *Execution) TaskFailures() int64 { return e.ex.taskFailures.Load() }

// TaskRestarts returns how many crashed tasks the supervisor replaced.
func (e *Execution) TaskRestarts() int64 { return e.ex.taskRestarts.Load() }

// LostRecords returns how many records died with crashed tasks (queued
// at or in flight to a task that panicked).
func (e *Execution) LostRecords() int64 { return e.ex.lostRecords.Load() }

// DroppedNoConsumer returns how many records this execution dropped
// because a gate had no consumers; zero in healthy executions.
func (e *Execution) DroppedNoConsumer() int64 { return e.ex.dropNoConsumer.Load() }

// Rows returns the recorded time series (requires Config.RecordInterval).
func (e *Execution) Rows() []Row {
	e.ex.rowsMu.Lock()
	defer e.ex.rowsMu.Unlock()
	out := make([]Row, len(e.ex.rows))
	copy(out, e.ex.rows)
	return out
}

// Guarantee returns the execution's processing-guarantee level.
func (e *Execution) Guarantee() ckpt.Guarantee { return e.ex.guarantee }

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
	assigned, _, _ := e.ex.logTotals()
	return int64(assigned)
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

// ReplayStalls returns how many emissions sources deferred because the
// replay buffer was at capacity (backpressure, not loss).
func (e *Execution) ReplayStalls() int64 {
	_, _, stalls := e.ex.logTotals()
	return stalls
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

// CPUUtilization returns the mean task CPU (UDF) utilization so far:
// busy time over allocated task time.
func (e *Execution) CPUUtilization() float64 {
	ex := e.ex
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.accountUsageLocked()
	busy := float64(ex.retired)
	for _, name := range ex.order {
		for _, t := range ex.vertices[name].tasks {
			busy += float64(t.busyNs.Load())
		}
	}
	if ts := ex.meter.TaskSeconds(); ts > 0 {
		return busy / 1e9 / ts
	}
	return 0
}
