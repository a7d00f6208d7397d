package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/cluster"
	"nephelix/internal/core"
	"nephelix/internal/master"
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
	// WheelResolution is ignored. It set the tick of the flush-timer
	// wheel, which is gone: each lane parks no longer than its earliest
	// flush deadline, so deadlines are as punctual as the Go timer is.
	WheelResolution time.Duration
	// MaxBatchRecords caps output batches (default 256).
	MaxBatchRecords int
	// FlushTick is how long a source lane that waits for a commit or for
	// room in its replay buffer parks between checks (default 1 ms).
	FlushTick time.Duration
	// DrainIdle is how long a draining task waits for stragglers before
	// exiting (default 300 ms).
	DrainIdle time.Duration
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
		s := runtime.GOMAXPROCS(0) / 2
		if s < 1 {
			s = 1
		}
		if s > 4 {
			s = 4
		}
		c.SourceShards = s
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
		manager:     qos.NewManager(master.ManagerConfig(e.cfg.AdjustmentInterval.Seconds(), e.cfg.MeasurementInterval.Seconds())),
		vertices:    make(map[string]*vertexState),
		edgePos:     make(map[model.EdgeKey]int),
		modes:       make(map[string]model.LatencyMode),
		deadlines:   make(map[model.EdgeKey]time.Duration),
		reports:     make(chan any, 4096),
		failures:    make(chan taskFailure, 1024),
		restarts:    make(chan string, 1024),
		supervisors: make(map[string]*supervisor),
		stepErrs:    make(map[string]bool),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
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
	if ex.loop, err = ex.newLoop(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := ex.bootstrap(); err != nil {
		return nil, err
	}
	ex.start = time.Now()
	ex.meter.Advance(0, 0, 0)
	ex.launchAll()
	go ex.masterLoop()
	return &Execution{ex: ex}, nil
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
	// retiredFlushes counts the deadline flush passes of exited lanes.
	retiredFlushes int64

	edgePos map[model.EdgeKey]int
	modes   map[string]model.LatencyMode

	deadlines map[model.EdgeKey]time.Duration
	manager   *qos.Manager
	// loop is the master's adjustment interval (internal/master); the
	// execution is its Runtime under wall time (master.go). stepErrs holds
	// the step errors already audited, one event per distinct message.
	loop     *master.Loop
	stepErrs map[string]bool

	probes  *probe.ProbeSet
	reports chan any

	// pool recycles batch slices across all tasks of the execution (see
	// pool.go for the ownership contract); poolSeq hands out shard hints
	// round-robin at task/emitter construction.
	pool    batchPool
	poolSeq atomic.Int64

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

	wg          sync.WaitGroup
	sourcesLeft atomic.Int32
	stopOnce    sync.Once
	stopCh      chan struct{}
	doneCh      chan struct{}
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
	if vs.tail && src == nil {
		t.emitters[0].reporter.TrackQueueWait()
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
	ex.cfg.Recorder.RecordLifecycle(ex.Now(), kind, lc)
}

// Now is the execution's clock, seconds since its start (master.Runtime).
func (ex *execution) Now() float64 { return time.Since(ex.start).Seconds() }

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
	for _, e := range t.emitters {
		ex.retiredFlushes += e.flushes.Load()
	}
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
	ex.meter.Advance(ex.Now(), total, ex.rm.Leased())
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
