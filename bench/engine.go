package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// The three live-engine workloads. All run the reference job
// src(1) → work(2) → sink(1) with a pass-through worker; they differ in
// wiring, batching mode and how the generator offers load.

const (
	offeredRate   = 200_000         // records/s of the open-loop workloads; never calibrated per run
	closedBurst   = 64              // records per Emit call of the closed-loop workload
	engineWarmUp  = 3 * time.Second // excluded from every end-to-end measurement
	setupRepeats  = 16              // set-ups timed per run; the median is reported
	setupLength   = 10 * time.Millisecond
	engineTimeout = 90 * time.Second
)

// engineCase pins one engine workload.
type engineCase struct {
	name string
	// rate is the offered load in records/s; 0 selects the closed loop.
	rate int
	// tickRate is the engine Schedule's rate: how often the engine calls
	// the generator. Above 10k/s the source busy-polls, below it parks.
	tickRate float64
	keyed    bool
	mode     engine.EdgeBatching
	// constraint, when set, is a mean-latency constraint over
	// src->work, work, work->sink.
	constraint time.Duration
	// limit is the latency a record must meet to count as on time, and a
	// window's mean to count as fulfilled.
	limit time.Duration
	// maxLagP50 invalidates an open-loop run whose generator ran later
	// than this at the median: the number would measure the generator.
	maxLagP50 time.Duration
}

var engineCases = map[string]engineCase{
	"steady-instant": {
		name: "steady-instant", rate: offeredRate, tickRate: 50_000,
		mode: engine.BatchingInstant, limit: 10 * time.Millisecond,
		maxLagP50: 100 * time.Microsecond,
	},
	"steady-adaptive": {
		name: "steady-adaptive", rate: offeredRate, tickRate: 2_000, keyed: true,
		mode: engine.BatchingAdaptive, constraint: 20 * time.Millisecond,
		limit: 20 * time.Millisecond, maxLagP50: 2 * time.Millisecond,
	},
	"saturate-fixed": {
		name: "saturate-fixed", tickRate: 1e9, keyed: true,
		mode: engine.BatchingFixed, limit: 250 * time.Millisecond,
	},
}

// pinnedConfig fixes every engine knob that has a host-derived or
// flag-derived default, so a number cannot move with the machine.
func pinnedConfig(seed int64) engine.Config {
	return engine.Config{
		Workers:             16,
		SlotsPerWorker:      4,
		MeasurementInterval: 250 * time.Millisecond,
		AdjustmentInterval:  time.Second,
		QueueCapacity:       64,
		SourceShards:        1,
		WheelResolution:     time.Millisecond,
		MaxBatchRecords:     256,
		FlushTick:           time.Millisecond,
		DrainIdle:           300 * time.Millisecond,
		Seed:                seed,
	}
}

// engineJob is one assembled execution of a case: the spec plus the
// benchmark's own components inside it.
type engineJob struct {
	spec    *engine.JobSpec
	gen     *generator
	sink    *sink
	mu      sync.Mutex
	workers []*worker
}

// buildJob assembles the reference job. t0 is the generator's origin,
// length how long it offers load (warm-up included).
func buildJob(c engineCase, seed int64, t0 time.Time, warm, length time.Duration, traced bool) (*engineJob, error) {
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "work", Parallelism: 2, MinParallelism: 2, MaxParallelism: 2},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	pattern := model.PatternRoundRobin
	if c.keyed {
		pattern = model.PatternKeyBased
	}
	if err := g.AddEdge("src", "work", pattern); err != nil {
		return nil, err
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		return nil, err
	}

	var keys []uint64
	if c.keyed {
		keys = seededKeys(seed)
	}
	var period time.Duration
	if c.rate > 0 {
		period = time.Second / time.Duration(c.rate)
	}
	job := &engineJob{
		gen:  newGenerator(t0, period, closedBurst, warm, length, keys, traced),
		sink: newSink(t0, c.limit, int(length/time.Second)+2),
	}
	job.spec = engine.NewJobSpec(g).
		SetSource("src", engine.SourceSpec{
			// The slack lets the last due records out before the engine
			// stops calling the generator.
			Schedule: &workload.ConstantSchedule{RatePerSecond: c.tickRate, Length: length.Seconds() + 0.1},
			Emit:     job.gen.emit,
		}).
		SetUDF("work", func(int) engine.UDF {
			w := &worker{t0: t0}
			if c.keyed {
				w.lastSeq = make([]uint64, keySpace)
			}
			job.mu.Lock()
			job.workers = append(job.workers, w)
			job.mu.Unlock()
			return w
		}).
		SetUDF("sink", func(int) engine.UDF { return job.sink }).
		SetEdgeBatching("src", "work", c.mode).
		SetEdgeBatching("work", "sink", c.mode)
	if c.constraint > 0 {
		seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
		if err != nil {
			return nil, err
		}
		job.spec.AddConstraint(&model.Constraint{
			Name: "pipeline", Sequence: seq, Bound: c.constraint, Window: 5 * time.Second,
		})
	}
	return job, nil
}

// check runs the output checks of a finished execution and returns the
// number of offered records not delivered exactly once.
func (j *engineJob) check(exec *engine.Execution, keyed bool) (failed uint64, errs []string) {
	offered := j.gen.seq
	delivered := uint64(j.sink.delivered.Load())
	distinct := j.sink.distinct(offered)
	failed = offered - distinct + j.sink.dups
	if delivered != offered || distinct != offered || j.sink.dups != 0 {
		errs = append(errs, fmt.Sprintf("exactly-once: offered %d, delivered %d, distinct %d, duplicates %d",
			offered, delivered, distinct, j.sink.dups))
	}
	if keyed {
		var ooo uint64
		for _, w := range j.workers {
			ooo += w.outOfOrder
		}
		if ooo != 0 {
			errs = append(errs, fmt.Sprintf("per-key order: %d records arrived behind a later record of their key", ooo))
		}
	}
	if l, d, f := exec.LostRecords(), exec.DroppedNoConsumer(), exec.TaskFailures(); l != 0 || d != 0 || f != 0 {
		errs = append(errs, fmt.Sprintf("engine counters: lost %d, dropped-no-consumer %d, task failures %d", l, d, f))
	}
	return failed, errs
}

// measureSetup times one set-up: graph build, Submit and the wait for
// the first delivered record. The short run is then drained.
func measureSetup(c engineCase, seed int64) (submit, first time.Duration, err error) {
	t0 := time.Now()
	job, err := buildJob(c, seed, t0, 0, setupLength, false)
	if err != nil {
		return 0, 0, err
	}
	// Nothing up to the first record depends on the measurement interval,
	// but the engine's end-of-job quiescence test takes three of them;
	// shortening it lets a run afford many set-ups.
	cfg := pinnedConfig(seed)
	cfg.MeasurementInterval = 20 * time.Millisecond
	exec, err := engine.New(cfg).Submit(job.spec, nil)
	if err != nil {
		return 0, 0, err
	}
	submit = time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), engineTimeout)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		exec.Stop()
		return 0, 0, fmt.Errorf("set-up run: %w", err)
	}
	ns := job.sink.firstNs.Load()
	if ns == 0 {
		return 0, 0, fmt.Errorf("set-up run delivered no record")
	}
	return submit, time.Duration(ns), nil
}

// enginePass is what one measured execution yields.
type enginePass struct {
	job     *engineJob
	exec    *engine.Execution
	warm    int // warm-up seconds
	measure int // measured seconds
	// cpu and recs are the process CPU seconds and the records delivered
	// in each measured second, as sampled by the driving goroutine.
	cpu    []float64
	recs   []int64
	drain  time.Duration
	errs   []string
	failed uint64

	// Traced pass only.
	mem0, mem1 runtime.MemStats
	heapPeak   uint64
	dp         []*obs.DataplaneSnapshot // one per measured second
	tracer     *obs.Tracer
}

// runEnginePass submits the case and measures `measure` one-second
// windows after `warm` seconds. With traced set, the engine's tracer
// and telemetry are on, one record in traceEvery carries stamps, and
// heap and data-plane state are sampled once a second.
func runEnginePass(c engineCase, seed int64, warm, measure time.Duration, traced bool) (*enginePass, error) {
	t0 := time.Now()
	job, err := buildJob(c, seed, t0, warm, warm+measure, traced)
	if err != nil {
		return nil, err
	}
	cfg := pinnedConfig(seed)
	p := &enginePass{job: job, warm: int(warm / time.Second), measure: int(measure / time.Second)}
	if traced {
		p.tracer = obs.NewTracer(traceEvery)
		cfg.Tracer = p.tracer
		cfg.Telemetry = obs.NewTelemetry(0)
	}
	exec, err := engine.New(cfg).Submit(job.spec, nil)
	if err != nil {
		return nil, err
	}
	p.exec = exec

	time.Sleep(time.Until(t0.Add(warm)))
	if traced {
		runtime.ReadMemStats(&p.mem0)
		p.heapPeak = p.mem0.HeapAlloc
	}
	cpu0, rec0 := cpuSeconds(), job.sink.delivered.Load()
	for s := 1; s <= p.measure; s++ {
		time.Sleep(time.Until(t0.Add(warm + time.Duration(s)*time.Second)))
		cpu1, rec1 := cpuSeconds(), job.sink.delivered.Load()
		p.cpu = append(p.cpu, cpu1-cpu0)
		p.recs = append(p.recs, rec1-rec0)
		cpu0, rec0 = cpu1, rec1
		if traced {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			p.heapPeak = max(p.heapPeak, m.HeapAlloc)
			if snap := cfg.Telemetry.Dataplane(); snap != nil {
				p.dp = append(p.dp, snap)
			}
			cpu0 = cpuSeconds() // keep the sampling itself off the next second's bill
		}
	}
	if traced {
		runtime.ReadMemStats(&p.mem1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), engineTimeout)
	defer cancel()
	drainFrom := time.Now()
	if err := exec.Wait(ctx); err != nil {
		exec.Stop()
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	p.drain = time.Since(drainFrom)
	p.failed, p.errs = job.check(exec, c.keyed)
	if c.maxLagP50 > 0 {
		if lag := job.gen.lag.Quantile(0.5); lag > c.maxLagP50.Seconds() {
			p.errs = append(p.errs, fmt.Sprintf("invalid run: generator lag p50 %.3f ms exceeds %.3f ms; the number would measure the generator",
				lag*1e3, ms(c.maxLagP50)))
		}
	}
	return p, nil
}

// measured returns the sink windows after the warm-up.
func (p *enginePass) measured() []window {
	return p.job.sink.windows[p.warm : p.warm+p.measure]
}

// rates is the number of records that arrived in each measured window.
func (p *enginePass) rates() []float64 {
	var rates []float64
	for _, w := range p.measured() {
		rates = append(rates, float64(w.delivered))
	}
	return rates
}

// measuredStamps returns the traced records that were due after the
// warm-up and reached the sink.
func (p *enginePass) measuredStamps() []*stamps {
	g := p.job.gen
	warmNs := (time.Duration(p.warm) * time.Second).Nanoseconds()
	var out []*stamps
	for i := range g.stamped[:g.nstamped] {
		if st := &g.stamped[i]; st.due >= warmNs && st.sinkEnter != 0 {
			out = append(out, st)
		}
	}
	return out
}

// delivered is the number of records that arrived in the measured span.
func (p *enginePass) delivered() int64 {
	var n int64
	for _, r := range p.recs {
		n += r
	}
	return n
}

// cpuPerMrec is the process CPU time per million delivered records: the
// lower quartile of the measured seconds. Interference cuts both ways
// here (a slowed host inflates a second's CPU bill, a hypervisor stall
// followed by catch-up deflates it), so the reading discards the lowest
// seconds as well as the upper three quarters.
func (p *enginePass) cpuPerMrec() float64 {
	var per []float64
	for i, r := range p.recs {
		if r > 0 {
			per = append(per, p.cpu[i]/float64(r)*1e6)
		}
	}
	return quantile(per, 0.25)
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func (p *enginePass) endToEnd(c engineCase, out *metricSet) {
	ws := p.measured()
	var p50, p90 []float64
	var onTime, offered, fulfilled uint64
	var samples int
	for i := range ws {
		w := &ws[i]
		samples += int(w.n)
		onTime += w.onTime
		if c.rate > 0 {
			offered += uint64(c.rate)
		} else {
			offered += w.n
		}
		if w.n > 0 {
			p50 = append(p50, w.lat.Quantile(0.5)*1e3)
			p90 = append(p90, w.lat.Quantile(0.9)*1e3)
			if time.Duration(w.sumNs/int64(w.n)) <= c.limit {
				fulfilled++
			}
		}
	}
	out.set("latency_p50_ms", quiet(p50, "lower"), samples)
	out.set("latency_p90_ms", quiet(p90, "lower"), samples)
	if offered > 0 {
		out.set("ontime_frac", float64(onTime)/float64(offered), int(offered))
	}
	out.set("fulfil_frac", float64(fulfilled)/float64(len(ws)), len(ws))
	out.set("cpu_s_per_mrec", p.cpuPerMrec(), int(p.delivered()))
	out.set("throughput_rec_s", quiet(p.rates(), "higher"), len(ws))
	out.set("task_hours", p.exec.TaskHours(), 0)
}

// windowNote lists the measured windows' median latencies and delivery
// counts, so a disturbed window is visible next to the summary.
func (p *enginePass) windowNote(res *result) {
	line := "window p50 ms / delivered:"
	for _, w := range p.measured() {
		line += fmt.Sprintf(" %.4g/%d", w.lat.Quantile(0.5)*1e3, w.delivered)
	}
	res.notes = append(res.notes, line)
}

// lagNote reports how late the generator ran, for every open-loop run.
func (p *enginePass) lagNote(res *result) {
	lag := p.job.gen.lag
	if lag.Count() > 0 {
		res.notef("generator lag p50 %.4f ms, p99 %.4f ms over %d records",
			lag.Quantile(0.5)*1e3, lag.Quantile(0.99)*1e3, lag.Count())
	}
}

// runEngineUntraced is the --trace 0 run of an engine workload. Half
// the set-ups are timed before the measured pass and half after, so that
// their median spans the run rather than one instant of the host's mood.
func runEngineUntraced(c engineCase, seed int64, seconds int) (*result, error) {
	res := newResult()
	var setups []float64
	timeSetups := func() error {
		for i := 0; i < setupRepeats/2; i++ {
			_, first, err := measureSetup(c, seed)
			if err != nil {
				return err
			}
			setups = append(setups, first.Seconds())
		}
		return nil
	}
	if err := timeSetups(); err != nil {
		return nil, err
	}
	p, err := runEnginePass(c, seed, engineWarmUp, time.Duration(seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	if err := timeSetups(); err != nil {
		return nil, err
	}
	res.metrics.set("setup_s", median(setups), len(setups))
	p.endToEnd(c, res.metrics)
	p.windowNote(res)
	res.attempted = p.job.gen.seq
	res.failed = p.failed
	res.errs = p.errs
	p.lagNote(res)
	return res, nil
}
