package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"nephelix/internal/cluster"
	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
)

// Sim is one discrete-event simulation run. Create it with New, attach
// probes via the Config's behaviors, then call Run.
type Sim struct {
	cfg *Config
	now float64
	q   eventQueue
	rng *rand.Rand

	vertices    map[string]*simVertex
	vertexOrder []string

	// edgePos maps an edge to its position among its source vertex's
	// outgoing edges, graphEdge to its position in the graph's edge list;
	// edgeNames holds each edge's rendered key by that position.
	edgePos   map[model.EdgeKey]int
	graphEdge map[model.EdgeKey]int
	edgeNames []string
	// retired holds each edge's data-plane totals over its closed
	// channels by that position (see closeChannel).
	retired []edgeFlow
	// wired is wire's scratch list of one producer's new channels.
	wired []*simChannel

	managers  []*qos.Manager
	managerRR int

	// loop is the master's adjustment interval (internal/master); the
	// simulator is its Runtime under virtual time (simRuntime).
	loop      *master.Loop
	scheduler *cluster.Scheduler
	rm        *cluster.ResourceManager
	meter     cluster.UsageMeter

	probes *ProbeSet

	// batchPool is the free list of batch slices (see pool.go).
	batchPool [][]Item
	// taskSlots and chanSlots map event indices to tasks and channels,
	// in creation order. Slots are append-only and never reused, so an
	// event scheduled before a task's disposal still resolves to that
	// (disposed) task, as a pointer would, without a pointer in every
	// event. A closed channel's slot is set to nil once no batch is left
	// on it: every evDeliver names a batch still on its channel.
	taskSlots []*simTask
	chanSlots []*simChannel
	// partials is reused across adjustment ticks.
	partials []*qos.PartialSummary
	// dp is the data-plane scraper state (lazily built; nil until the
	// first adjustment tick with telemetry configured).
	dp *simDataplane
	// sourceCount sizes the per-row source-rate maps.
	sourceCount int

	// nextAdjust is the time of the next adjustment tick.
	nextAdjust float64

	// deadlines are the flush deadlines the loop last published; gates of
	// tasks created later start from them.
	deadlines map[model.EdgeKey]float64

	// guar holds the processing-guarantee state (nil when disabled, so
	// the historical data path stays byte-identical).
	guar *guarState

	// counters (per-vertex item counters live on simVertex: map hashing
	// per processed item is measurable at simulator throughput)
	droppedItems        int64
	killedTasks         int
	killedNodes         int
	killedItems         int64
	respawnedTasks      int
	poolExhaustedEvents int
	scaleUps            int
	scaleDowns          int
	retiredBusy         float64
	lastBusySum         float64
	lastTaskSeconds     float64
	lastRowTime         float64

	rows []Row
	err  error
}

// ProbeSample is one probe's per-row measurement.
type ProbeSample struct {
	Count int64
	Mean  float64
	P95   float64
}

// Row is one record-interval sample of the run's time series.
type Row struct {
	Time float64
	// Probes holds per-probe latency samples for the interval.
	Probes map[string]ProbeSample
	// Attempted and Effective are per-source-vertex rates (items/s) over
	// the interval.
	Attempted map[string]float64
	Effective map[string]float64
	// Processed is the per-vertex rate of items completing service over
	// the interval; at sink vertices this is the system's delivered
	// throughput.
	Processed map[string]float64
	// Parallelism is the active task count per vertex.
	Parallelism map[string]int
	// TotalTasks counts active plus draining tasks; LeasedNodes the
	// currently leased workers.
	TotalTasks  int
	LeasedNodes int
	// CPUUtilization is the mean task CPU utilization over the interval.
	CPUUtilization float64
}

// ProbeSummary is one probe's whole-run outcome.
type ProbeSummary struct {
	Fulfillment float64
	Intervals   int
	Mean        float64
	P95         float64
	P99         float64
	Count       int64
	// TailFulfillment is the fraction of intervals whose TailQuantile-th
	// quantile latency met the bound (percentile-constraint probes only).
	TailFulfillment float64
	TailQuantile    float64
}

// Result is the outcome of a simulation run.
type Result struct {
	Rows   []Row
	Probes map[string]ProbeSummary
	// TaskHours and NodeHours are the integrated resource consumption
	// (the paper's cost metric).
	TaskHours float64
	NodeHours float64
	// Emitted counts items emitted per source vertex.
	Emitted map[string]int64
	// PeakParallelism, ScaleUps and ScaleDowns describe the scaling
	// history.
	PeakParallelism map[string]int
	ScaleUps        int
	ScaleDowns      int
	// DroppedItems counts items lost to disposed tasks (diagnostics; zero
	// in healthy runs).
	DroppedItems int64
	// KilledTasks counts the tasks FaultPlan kills took down. KilledItems
	// counts items lost synchronously with a kill (queued input, buffered
	// output, stalled batches); in-flight batches that reach a dead task
	// later land in DroppedItems.
	KilledTasks int
	KilledItems int64
	// MeanCPUUtilization is the run-wide mean task CPU utilization.
	MeanCPUUtilization float64

	// Processing-guarantee outcome (zero values when disabled).
	// CheckpointsCommitted / CheckpointsAborted count barrier
	// checkpoints; CommittedOffsets is the total source watermark of
	// the last commit.
	CheckpointsCommitted int
	CheckpointsAborted   int
	CommittedOffsets     uint64
	// ReplayedItems counts source-log re-emissions after respawns.
	ReplayedItems int64
	// SinkDistinct / SinkDuplicates / SinkHoles aggregate the sink
	// dedup tables: first-time deliveries, detected duplicates
	// (suppressed under exactly-once), and committed-but-never-
	// delivered offsets. Holes > 0 means records were lost despite the
	// guarantee — the zero-loss assertions check exactly this.
	SinkDistinct   int64
	SinkDuplicates int64
	SinkHoles      int64
}

// New builds a simulation from the config and probe set (probes may be
// nil when the application does not measure end-to-end latency).
func New(cfg Config, probes *ProbeSet) (*Sim, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if probes == nil {
		probes = probe.NewProbeSet()
	}
	rm, err := cluster.NewResourceManager(cfg.WorkerNodes, cfg.SlotsPerNode)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Sim{
		cfg:       &cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		vertices:  make(map[string]*simVertex),
		edgePos:   make(map[model.EdgeKey]int),
		graphEdge: make(map[model.EdgeKey]int),
		rm:        rm,
		scheduler: cluster.NewScheduler(rm),
		probes:    probes,
	}
	mcfg := master.ManagerConfig(cfg.AdjustmentInterval, cfg.MeasurementInterval)
	for i := 0; i < managerCount; i++ {
		s.managers = append(s.managers, qos.NewManager(mcfg))
	}
	s.loop, err = master.New(cfg.Graph, cfg.Constraints, cfg.Scaler, cfg.Elastic, probes,
		obs.IntervalObserver(cfg.Telemetry, cfg.Recorder, probes, cfg.Constraints, s.scrapeDataplane),
		cfg.OnAdjust)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.initGuarantees()
	if err := s.bootstrap(); err != nil {
		return nil, err
	}
	return s, nil
}

// nextManager assigns reporters to managers round-robin.
func (s *Sim) nextManager() *qos.Manager {
	m := s.managers[s.managerRR]
	s.managerRR = (s.managerRR + 1) % len(s.managers)
	return m
}

// outEdgePos returns the position of edge within its source vertex's
// out-edge order.
func (s *Sim) outEdgePos(edge model.EdgeKey) int { return s.edgePos[edge] }

// bootstrap creates the initial tasks and channels.
func (s *Sim) bootstrap() error {
	g := s.cfg.Graph
	tail := qos.TailVertices(s.cfg.Constraints)
	for i, e := range g.Edges() {
		s.graphEdge[e.Key()] = i
		s.edgeNames = append(s.edgeNames, e.Key().String())
	}
	s.retired = make([]edgeFlow, len(s.edgeNames))
	for _, jv := range g.Vertices() {
		outs := g.OutEdges(jv.Name)
		for i, ek := range outs {
			s.edgePos[ek] = i
		}
		if s.cfg.Vertices[jv.Name].Source != nil {
			s.sourceCount++
		}
		v := &simVertex{
			sim:      s,
			jv:       jv,
			cfg:      s.cfg.Vertices[jv.Name],
			draining: make(map[*simTask]struct{}),
			outEdges: outs,
			inEdges:  g.InEdges(jv.Name),
			tail:     tail[jv.Name],
		}
		s.vertices[jv.Name] = v
		s.vertexOrder = append(s.vertexOrder, jv.Name)
	}
	// Create tasks first, then wire all channels producer×consumer.
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		for i := 0; i < v.jv.Parallelism; i++ {
			t, err := v.newTask()
			if err != nil {
				return fmt.Errorf("sim: initial placement of %s task %d: %w", name, i, err)
			}
			v.tasks = append(v.tasks, t)
		}
		v.peak = len(v.tasks)
	}
	n := 0
	for _, e := range g.Edges() {
		n += len(s.vertices[e.Source].tasks) * len(s.vertices[e.Target].tasks)
	}
	s.chanSlots = make([]*simChannel, 0, n)
	for _, e := range g.Edges() {
		pos := s.edgePos[e.Key()]
		for _, p := range s.vertices[e.Source].tasks {
			s.wire(p, pos, s.vertices[e.Target].tasks)
		}
	}
	for _, name := range s.vertexOrder {
		for _, t := range s.vertices[name].tasks {
			s.startTask(t)
		}
	}
	return nil
}

// startTask begins a task's autonomous activity: source emission and
// window timers.
func (s *Sim) startTask(t *simTask) {
	if t.isSource {
		src := t.vtx.cfg.Source
		rate := src.Schedule.Rate(s.now)
		offset := 0.001
		if rate > 0 {
			offset = s.rng.Float64() * float64(len(t.vtx.tasks)+1) / rate
		}
		s.schedule(s.now+offset, evSourceEmit, t.slot, 0)
		return
	}
	if tb, ok := t.behavior.(TimerBehavior); ok {
		interval := tb.TimerInterval()
		if interval <= 0 {
			s.fail("timer behavior of %s has non-positive interval", t.id)
			return
		}
		t.timerInterval = interval
		s.schedule(s.now+s.rng.Float64()*interval, evTimer, t.slot, 0)
	}
}

// timerFire runs one TimerBehavior tick of t and reschedules it.
func (s *Sim) timerFire(t *simTask) {
	if t.disposed || t.draining {
		return
	}
	tb, ok := t.behavior.(TimerBehavior)
	if !ok {
		return
	}
	tb.OnTimer(&t.ctx)
	// ±5% dither keeps window emissions from aliasing with batched
	// arrivals and other periodic activity.
	s.schedule(s.now+t.timerInterval*(0.95+0.1*s.rng.Float64()), evTimer, t.slot, 0)
}

// Sample reports whether the next source emission should be tagged for
// end-to-end latency probing.
func (c *TaskContext) Sample() bool {
	p := c.t.vtx.cfg.SampleProbability
	if p <= 0 {
		p = 0.05
	}
	return c.s.rng.Float64() < p
}

// sourceEmit is one emission event of a source task.
func (s *Sim) sourceEmit(t *simTask) {
	if t.srcStopped || t.disposed {
		return
	}
	if t.blockedOut > 0 {
		// Backpressure: the source thread is stuck in a send; it resumes
		// emitting when unblocked (resume()).
		t.srcPendingEmit = true
		return
	}
	if t.srcLog != nil && t.srcLog.Full() {
		// The replay buffer is at its bound: emitting more would make
		// the uncommitted suffix unreplayable. Stall until a checkpoint
		// commit frees space.
		s.schedule(s.now+0.01, evSourceEmit, t.slot, 0)
		return
	}
	src := t.vtx.cfg.Source
	rate := src.Schedule.Rate(s.now)
	if rate <= 0 {
		if s.now < src.Schedule.Duration() {
			s.schedule(s.now+0.5, evSourceEmit, t.slot, 0)
		} else {
			t.srcStopped = true
		}
		return
	}
	cost := src.EmitCost + t.pendingOverhead
	t.pendingOverhead = 0
	t.busyAccum += cost
	// Sources are tasks too: their per-item production cost is their
	// service time, and each emission is an "arrival" of demand — so a
	// source's utilization ρ = cost/interval reaches 1 when it saturates,
	// making producer-bound edges visible to the batching controller.
	t.reporter.RecordArrival(s.now)
	t.reporter.RecordService(cost)
	t.curSpan = s.cfg.Tracer.StartSpan(s.now)
	t.srcRate = rate
	src.Emit(&t.ctx, s.now)
	t.curSpan = nil
	t.vtx.emitted++

	n := len(t.vtx.tasks)
	if n == 0 {
		n = 1
	}
	interval := float64(n) / rate
	if src.Poisson {
		interval *= s.rng.ExpFloat64()
	} else {
		// ±10% jitter keeps sources from emitting in lockstep.
		interval *= 0.9 + 0.2*s.rng.Float64()
	}
	next := interval
	if cost > next {
		// Saturated source: the emission interval is the production cost
		// itself. Real per-item costs vary; without jitter the saturated
		// sources would sweep their consumers in rigid lockstep and
		// cluster arrivals.
		next = cost * (0.95 + 0.1*s.rng.Float64())
	}
	s.schedule(s.now+next, evSourceEmit, t.slot, 0)
}

// fail aborts the run with an error.
func (s *Sim) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("sim: t=%.3f: "+format, append([]any{s.now}, args...)...)
	}
}

// runningTasks counts active plus draining tasks.
func (s *Sim) runningTasks() int {
	total := 0
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		total += len(v.tasks) + len(v.draining)
	}
	return total
}

// accountUsage integrates resource usage up to now; call before any
// change to task or node counts.
func (s *Sim) accountUsage() {
	s.meter.Advance(s.now, s.runningTasks(), s.rm.Leased())
}

// parallelismMap returns the active parallelism per vertex.
func (s *Sim) parallelismMap() map[string]int {
	m := make(map[string]int, len(s.vertexOrder))
	for _, name := range s.vertexOrder {
		m[name] = s.vertices[name].parallelism()
	}
	return m
}

// measurementTick flushes every reporter into its manager: each live
// task's and each of its open input channels'.
func (s *Sim) measurementTick() {
	s.eachLiveTask(func(t *simTask) {
		rep := t.reporter.Flush()
		t.history.Report(&rep)
		for _, ch := range t.in {
			rep := ch.reporter.Flush()
			ch.history.Report(&rep)
		}
	})
}

// adjustmentTick runs the master's adjustment interval; a failed step
// (the scaler could not decide, an action named an unknown vertex) fails
// the run.
func (s *Sim) adjustmentTick() {
	if err := s.loop.Step(simRuntime{s}); err != nil {
		s.fail("%v", err)
	}
}

// simRuntime is the simulator as the master loop's Runtime.
type simRuntime struct{ s *Sim }

func (r simRuntime) Now() float64 { return r.s.now }

func (r simRuntime) Parallelism() map[string]int { return r.s.parallelismMap() }

func (r simRuntime) Partials() []*qos.PartialSummary {
	s := r.s
	s.partials = s.partials[:0]
	for _, m := range s.managers {
		s.partials = append(s.partials, m.PartialSummary())
	}
	return s.partials
}

func (r simRuntime) Scale(vertex string, delta int) error {
	s := r.s
	v := s.vertices[vertex]
	if v == nil {
		return fmt.Errorf("unknown vertex %q", vertex)
	}
	s.accountUsage()
	if delta > 0 {
		v.addTasks(delta)
		s.scaleUps++
	} else {
		v.removeTasks(-delta)
		s.scaleDowns++
	}
	return nil
}

// SetDeadlines pushes new flush deadlines to adaptive output gates.
// Gates are visited in deterministic order: any flush events created here
// consume the shared RNG, and map-ordered iteration would make runs
// diverge between processes.
func (r simRuntime) SetDeadlines(deadlines map[model.EdgeKey]float64) {
	s := r.s
	s.deadlines = deadlines
	s.eachLiveTask(func(t *simTask) {
		for pos, g := range t.gates {
			if g.mode != BatchAdaptive {
				continue
			}
			dl, ok := deadlines[g.edge]
			if !ok {
				continue
			}
			g.deadline = dl
			if dl <= 0 {
				s.flushGate(g)
			} else if !g.timerSet {
				s.armFlushTimer(t, pos)
			}
		}
	})
}

// eachLiveTask calls f on every live task: per vertex in graph order,
// the active tasks, then the draining ones in id order, so float sums
// and RNG draws over them are the same every run.
func (s *Sim) eachLiveTask(f func(*simTask)) {
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		for _, t := range v.tasks {
			f(t)
		}
		for _, t := range sortedDraining(v.draining) {
			f(t)
		}
	}
}

// sortedDraining returns draining tasks in id order.
func sortedDraining(m map[*simTask]struct{}) []*simTask {
	if len(m) == 0 {
		return nil
	}
	out := make([]*simTask, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Index < out[j].id.Index })
	return out
}

// busySum is the busy seconds of every task so far: retired, active,
// then draining in id order, so the float sum is the same every run.
func (s *Sim) busySum() float64 {
	sum := s.retiredBusy
	s.eachLiveTask(func(t *simTask) { sum += t.busyAccum })
	return sum
}

// recordTick emits one time-series row.
func (s *Sim) recordTick() {
	s.accountUsage()
	dt := s.now - s.lastRowTime
	if dt <= 0 {
		return
	}
	// Rows are retained in the result, so their maps must be freshly
	// owned — but they are preallocated at exactly the needed size
	// (vertex/source/probe counts are known) instead of growing from
	// empty.
	row := Row{
		Time:        s.now,
		Probes:      make(map[string]ProbeSample, s.probes.Len()),
		Attempted:   make(map[string]float64, s.sourceCount),
		Effective:   make(map[string]float64, s.sourceCount),
		Processed:   make(map[string]float64, len(s.vertexOrder)),
		Parallelism: s.parallelismMap(),
		TotalTasks:  s.runningTasks(),
		LeasedNodes: s.rm.Leased(),
	}
	for _, name := range s.probes.Names() {
		cnt, mean, p95 := s.probes.Probe(name).RecSnapshot()
		row.Probes[name] = ProbeSample{Count: cnt, Mean: mean, P95: p95}
	}
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		row.Processed[name] = float64(v.processed-v.lastProcessed) / dt
		v.lastProcessed = v.processed
		if v.cfg.Source == nil {
			continue
		}
		row.Attempted[name] = integrateRate(v.cfg.Source.Schedule.Rate, s.lastRowTime, s.now) / dt
		row.Effective[name] = float64(v.emitted-v.lastEmitted) / dt
		v.lastEmitted = v.emitted
	}
	// CPU utilization: busy seconds per task second over the interval.
	busySum := s.busySum()
	taskSeconds := s.meter.TaskSeconds()
	if d := taskSeconds - s.lastTaskSeconds; d > 0 {
		row.CPUUtilization = (busySum - s.lastBusySum) / d
	}
	s.lastBusySum = busySum
	s.lastTaskSeconds = taskSeconds
	s.lastRowTime = s.now
	s.rows = append(s.rows, row)
}

// integrateRate numerically integrates a rate function over [t0, t1].
func integrateRate(rate func(float64) float64, t0, t1 float64) float64 {
	const steps = 64
	if t1 <= t0 {
		return 0
	}
	h := (t1 - t0) / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += rate(t0 + (float64(i)+0.5)*h)
	}
	return sum * h
}

// Run executes the simulation until the configured duration and returns
// the result.
func (s *Sim) Run() (*Result, error) {
	dur := s.cfg.Duration
	// Recurring control-plane ticks; each reschedules itself in dispatch.
	s.schedule(s.cfg.MeasurementInterval, evMeasure, 0, 0)
	s.nextAdjust = s.cfg.AdjustmentInterval
	s.schedule(s.nextAdjust, evAdjust, 0, 0)
	s.schedule(recordInterval, evRecord, 0, 0)
	if s.guar != nil {
		s.schedule(s.cfg.CheckpointInterval, evCheckpoint, 0, 0)
	}
	if s.cfg.Faults != nil {
		s.scheduleFaults(s.cfg.Faults)
	}
	s.accountUsage()

	var ev event
	for s.err == nil && s.q.pop(&ev) && ev.at <= dur {
		s.now = ev.at
		s.dispatch(&ev)
	}
	if s.err != nil {
		return nil, s.err
	}
	s.now = dur
	s.accountUsage()

	emitted := make(map[string]int64, s.sourceCount)
	peak := make(map[string]int, len(s.vertexOrder))
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		peak[name] = v.peak
		if v.cfg.Source != nil {
			emitted[name] = v.emitted
		}
	}
	res := &Result{
		Rows:            s.rows,
		Probes:          make(map[string]ProbeSummary),
		TaskHours:       s.meter.TaskHours(),
		NodeHours:       s.meter.NodeHours(),
		Emitted:         emitted,
		PeakParallelism: peak,
		ScaleUps:        s.scaleUps,
		ScaleDowns:      s.scaleDowns,
		DroppedItems:    s.droppedItems,
		KilledTasks:     s.killedTasks,
		KilledItems:     s.killedItems,
	}
	for _, name := range s.probes.Names() {
		p := s.probes.Probe(name)
		frac, intervals := p.Fulfillment()
		tailFrac, _ := p.TailFulfillment()
		res.Probes[name] = ProbeSummary{
			Fulfillment:     frac,
			Intervals:       intervals,
			Mean:            p.TotalMean(),
			P95:             p.TotalP95(),
			P99:             p.TotalQuantile(0.99),
			Count:           p.TotalCount(),
			TailFulfillment: tailFrac,
			TailQuantile:    p.Quantile,
		}
	}
	if g := s.guar; g != nil {
		committed, aborted := g.coord.Counts()
		res.CheckpointsCommitted, res.CheckpointsAborted = int(committed), int(aborted)
		if last, ok, _ := g.store.Latest(); ok { // a MemStore cannot fail
			res.CommittedOffsets = last.TotalOffsets()
		}
		res.ReplayedItems = g.replayed
		res.SinkDistinct, res.SinkDuplicates, res.SinkHoles = g.coord.Deliveries()
	}
	// Run-wide CPU utilization.
	busySum := s.busySum()
	if ts := s.meter.TaskSeconds(); ts > 0 {
		res.MeanCPUUtilization = busySum / ts
	}
	return res, nil
}
