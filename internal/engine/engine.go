package engine

import (
	"context"
	"fmt"
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
	// (defaults 250 ms and 1 s). Neither paces shutdown: a bounded job
	// ends as soon as its data has passed through.
	MeasurementInterval time.Duration
	AdjustmentInterval  time.Duration
	// Elastic enables the reactive scaler.
	Elastic bool
	// Scaler configures the elastic scaler and the batching controller's
	// queue-wait share (core.DefaultScalerConfig when zero).
	Scaler core.ScalerConfig
	// QueueCapacity is the ceiling of each producer→consumer SPSC ring
	// in batches (default 64, rounded up to a power of two): a ring holds
	// min(QueueCapacity, ringDepth) batches, and a producer that finds it
	// full parks until the consumer has drained half of it (DESIGN.md
	// "Backpressure is a handoff").
	QueueCapacity int
	// SourceShards is ignored: a source task is one goroutine, and a job
	// emits from more cores by raising its source vertex's parallelism.
	SourceShards int
	// WheelResolution is ignored. It set the tick of the flush-timer
	// wheel, which is gone: each lane parks no longer than its earliest
	// flush deadline. The Go runtime rounds a sub-millisecond timer park
	// up to about 1 ms, so a deadline flush can fire up to ≈ 1 ms late
	// (DESIGN.md).
	WheelResolution time.Duration
	// MaxBatchRecords caps output batches (default 256).
	MaxBatchRecords int
	// FlushTick is how long a source that waits for a commit or for
	// room in its replay buffer parks between checks (default 1 ms).
	FlushTick time.Duration
	// DrainIdle is ignored. A scale-down task waited that long on an
	// idle input before it left; it now leaves once its producers have
	// closed their rings into it and it has drained them.
	DrainIdle time.Duration
	// Seed drives the engine's own randomness: each task, output gate
	// and restart supervisor draws from its own splitmix64 generator,
	// seeded from Seed and its position in the job. A task's generator
	// drives its source jitter and sampling, a gate's its rotation and a
	// supervisor's its backoff jitter; UDFs are handed none.
	Seed int64
	// Guarantee selects the processing-guarantee level (default
	// AtMostOnce: crashes lose records, as before). AtLeastOnce enables
	// source offsets, barrier checkpoints and replay-on-restart;
	// ExactlyOnce additionally deduplicates at the sinks.
	Guarantee ckpt.Guarantee
	// CheckpointInterval paces barrier injection when Guarantee is
	// enabled (default 250 ms).
	CheckpointInterval time.Duration
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

	// restart is the supervisor's restart policy; only this package's
	// tests set it, to restart faster than the defaults.
	restart restartPolicy
}

// restartPolicy is how the supervisor restarts a vertex whose tasks
// crash. Zero fields take the defaults noted per field.
type restartPolicy struct {
	// maxRestarts caps consecutive restarts per vertex (default 5).
	// Past the cap the vertex is degraded and the job shuts down
	// cleanly with an error instead of deadlocking on a dead stage.
	maxRestarts int
	// backoff is the first restart delay (default 25 ms); it doubles
	// per consecutive failure, up to backoffCap (default 1 s).
	backoff, backoffCap time.Duration
	// resetAfter is the stable run after which a vertex's backoff
	// resets to base (default AdjustmentInterval), so a long-lived task
	// that panics rarely does not escalate toward the cap forever.
	// Checked once per adjustment tick, so its resolution is one
	// AdjustmentInterval.
	resetAfter time.Duration
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
	if c.restart.maxRestarts <= 0 {
		c.restart.maxRestarts = 5
	}
	if c.restart.backoff <= 0 {
		c.restart.backoff = 25 * time.Millisecond
	}
	if c.restart.backoffCap <= 0 {
		c.restart.backoffCap = time.Second
	}
	if c.restart.resetAfter <= 0 {
		c.restart.resetAfter = c.AdjustmentInterval
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 250 * time.Millisecond
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
	ex, err := e.build(spec, probes)
	if err != nil {
		return nil, err
	}
	ex.start = time.Now()
	ex.meter.Advance(0, 0, 0)
	ex.launchAll()
	go ex.masterLoop()
	return &Execution{ex: ex}, nil
}

// build validates the spec and builds the execution and its initial
// tasks and wiring, launching nothing.
func (e *Engine) build(spec *JobSpec, probes *probe.ProbeSet) (*execution, error) {
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
	reports, perTask := mailboxes(spec.graph)
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
		reports:     make(chan any, reports),
		failures:    make(chan taskFailure, perTask),
		restarts:    make(chan string, perTask),
		exits:       make(chan struct{}, 1),
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
		ex.logs = ckpt.NewRegistry[logEntry](ckpt.ReplayBufferEntries)
		var dedups []*ckpt.DedupTable
		ex.dedups, dedups = ckpt.SinkDedups(spec.graph)
		ex.coord = ckpt.NewCoordinator[*task](ex.ckptStore, ex.logs, dedups)
		ex.ckptDone = make(chan ckpt.Round, 1)
	}
	if ex.loop, err = ex.newLoop(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := ex.bootstrap(); err != nil {
		return nil, err
	}
	return ex, nil
}

// mailboxes sizes the master's mailboxes from the job at maximum
// parallelism: reports holds two measurement intervals of reports, one
// per task and one per inbound channel, and failures and restarts hold
// two per task, each capped at 4096 and 1024 entries.
func mailboxes(g *model.JobGraph) (reports, perTask int) {
	for _, v := range g.Vertices() {
		perTask += v.MaxParallelism
	}
	reports = perTask
	for _, e := range g.Edges() {
		reports += g.Vertex(e.Source).MaxParallelism * g.Vertex(e.Target).MaxParallelism
	}
	return min(2*reports, 4096), min(2*perTask, 1024)
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
	// pool.go for the ownership contract); poolSeq hands out pool-shard
	// hints round-robin at task construction.
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

	// failErr is the terminal failure (degraded vertex); written by the
	// master loop before doneCh closes, read after Wait returns.
	failErr error

	wg          sync.WaitGroup
	sourcesLeft atomic.Int32
	stopOnce    sync.Once
	stopCh      chan struct{}
	doneCh      chan struct{}
	// exits is a one-slot poke each exiting task leaves the master.
	exits chan struct{}
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
	// Wire all edges producer × consumer: one SPSC ring per producer →
	// consumer task pair.
	for _, e := range g.Edges() {
		pos := ex.edgePos[e.Key()]
		for _, p := range ex.vertices[e.Source].tasks {
			for _, c := range ex.vertices[e.Target].tasks {
				ex.connect(p, pos, c)
			}
		}
	}
	return nil
}

// connect wires one producer task to one consumer task on an edge: one
// SPSC ring, registered with the consumer's poll set (bootstrap or
// master goroutine). Its push side belongs to the producer's task
// goroutine and its pop side to the consumer's, so the SPSC discipline
// holds by construction.
func (ex *execution) connect(p *task, pos int, c *task) {
	ref := &channelRef{from: p, to: c, ring: ring.New[batch](min(ex.cfg.QueueCapacity, ringDepth))}
	p.lane.gates[pos].Add(ref)
	c.addInput(ref)
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
		t.lane.reporter.TrackQueueWait()
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
func (ex *execution) Now() float64 { return ex.since(time.Now()) }

// since reads a wall-clock time on the execution's clock. Every engine
// timestamp — telemetry points, trace spans, lifecycle events — is one.
func (ex *execution) since(t time.Time) float64 { return t.Sub(ex.start).Seconds() }

// launch starts one task goroutine.
func (ex *execution) launch(t *task) {
	ex.recordLifecycle(obs.KindTaskStart, obs.Lifecycle{Vertex: t.id.Vertex, Task: t.id.String()})
	ex.wg.Add(1)
	if t.src != nil {
		ex.sourcesLeft.Add(1)
	}
	go t.run()
}

// taskDone is each task goroutine's exit hook.
func (ex *execution) taskDone(t *task) {
	ex.mu.Lock()
	ex.accountUsageLocked()
	ex.retiredFlushes += t.lane.flushes.Load()
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
	// Off vs.tasks, the task gains no consumer and loses none: close every
	// ring it could still push into, and its own in-rings, so a producer
	// parked on a full one gets out (a crash; after a clean exit they
	// are closed already).
	t.lane.closeOutRings()
	for _, ref := range t.inputs() {
		ref.cut()
	}
	ex.mu.Unlock()
	// reportFailure (if any) already ran, so pendingRecovery covers the
	// gap before the source counter drops.
	if t.src != nil {
		ex.sourcesLeft.Add(-1)
	}
	select {
	case ex.exits <- struct{}{}:
	default: // a poke is pending; the master reads the counts after it
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
			ex.connect(p, pos, t)
		}
	}
	for _, ek := range g.OutEdges(vertex) {
		pos := ex.edgePos[ek]
		for _, c := range ex.vertices[ek.Target].tasks {
			if c.draining.Load() {
				continue
			}
			ex.connect(t, pos, c)
		}
	}
}

// Execution is the public handle on a submitted job.
type Execution struct {
	ex *execution
}

// Wait blocks until the job finishes or the context is cancelled. A job
// finishes once its sources are exhausted (or stopped) and every task has
// drained its input and exited, vertex after vertex downstream; no
// measurement interval is waited out. If the job failed — a vertex
// degraded past its restart cap — Wait returns that error on every call.
func (e *Execution) Wait(ctx context.Context) error {
	select {
	case <-e.ex.doneCh:
		return e.ex.failErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop initiates a graceful shutdown: sources stop, and the end of input
// cascades downstream as on a bounded job; Wait returns once the last
// task has drained and exited.
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

// LostRecords returns how many records died with crashed tasks (queued
// at or in flight to a task that panicked).
func (e *Execution) LostRecords() int64 { return e.ex.lostRecords.Load() }

// DroppedNoConsumer returns how many records this execution dropped
// because a gate had no consumers; zero in healthy executions.
func (e *Execution) DroppedNoConsumer() int64 { return e.ex.dropNoConsumer.Load() }
