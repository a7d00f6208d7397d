package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/core"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/ring"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// The micro section: one row per layer operation, timed from outside
// through the packages' public functions. It is workload-independent
// and runs on every traced pass; each row is the median of microReps
// timings.

const microReps = 5

// microSink keeps results alive against dead-code elimination.
var microSink float64

// runMicro fills the ring, qos, core, sketch, probe and obs rows and
// runs the Rebalance-versus-brute-force check.
func runMicro(seed int64, out *metricSet, res *result) error {
	microRing(out)
	microQoS(out)
	microSketch(seed, out)
	if err := microControl(seed, out); err != nil {
		return err
	}
	microObs(out)
	if err := checkRebalance(seed); err != nil {
		res.failf("%v", err)
	}
	return nil
}

func microRing(out *metricSet) {
	const n = 1 << 20
	r := ring.New[int](64)
	out.set("ring.push_pop_ns", timeOp(microReps, n, func() {
		for i := 0; i < n; i++ {
			r.Push(i)
			v, _ := r.Pop()
			microSink += float64(v & 1)
		}
	}), microReps*n)

	// Two goroutines, one ring: the producer spins on a full ring as the
	// engine's ship loop does.
	var fails, pushes uint64
	out.set("ring.xfer_ns", timeOp(microReps, n, func() {
		x := ring.New[int](64)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got := 0; got < n; {
				if _, ok := x.Pop(); ok {
					got++
				} else {
					runtime.Gosched()
				}
			}
		}()
		for i := 0; i < n; i++ {
			for !x.Push(i) {
				runtime.Gosched()
			}
		}
		wg.Wait()
		st := x.Stats()
		fails += st.PushFails
		pushes += st.Pushes
	}), microReps*n)
	out.set("ring.push_fail_frac", float64(fails)/float64(fails+pushes), int(fails+pushes))
}

func microQoS(out *metricSet) {
	const n = 1 << 19
	tr := qos.NewTaskReporter(model.TaskID{Vertex: "work"})
	out.set("qos.reporter_record_ns", timeOp(microReps, n, func() {
		for i := 0; i < n; i++ {
			t := float64(i) * 1e-6
			tr.RecordArrival(t)
			tr.RecordService(3e-6)
			tr.RecordTaskLatency(3e-6)
		}
		tr.Flush()
	}), microReps*n)
	const flushes = 1 << 12
	out.set("qos.reporter_flush_ns", timeOp(microReps, flushes, func() {
		for i := 0; i < flushes; i++ {
			tr.RecordService(3e-6)
			microSink += tr.Flush().ServiceMean
		}
	}), microReps*flushes)
	cr := qos.NewChannelReporter(model.ChannelID{Edge: model.EdgeKey{Source: "src", Target: "work"}})
	out.set("qos.channel_record_ns", timeOp(microReps, n, func() {
		for i := 0; i < n; i++ {
			cr.RecordTransfer(2e-3, 1e-3)
		}
		cr.Flush()
	}), microReps*n)

	// 8 managers × 64 tasks, as the master merges them every adjustment
	// interval.
	report := func(task int) qos.TaskReport {
		return qos.TaskReport{
			Task:         model.TaskID{Vertex: "work", Index: task},
			ServiceCount: 100, ServiceMean: 0.003, ServiceCV: 0.5,
			InterarrivalCount: 100, InterarrivalMean: 0.006, InterarrivalCV: 1.0,
			TaskLatencyCount: 100, TaskLatencyMean: 0.003,
		}
	}
	managers := make([]*qos.Manager, 8)
	for i := range managers {
		managers[i] = qos.NewManager(qos.DefaultManagerConfig())
	}
	const reports = 1 << 14
	out.set("qos.manager_report_ns", timeOp(microReps, reports, func() {
		for i := 0; i < reports; i++ {
			managers[0].ReportTask(report(i % 64))
		}
	}), microReps*reports)
	for i, m := range managers {
		for t := 0; t < 64; t++ {
			m.ReportTask(report(i*64 + t))
		}
	}
	partials := make([]*qos.PartialSummary, len(managers))
	out.set("qos.partial_summary_us", timeOp(microReps, 8, func() {
		for i, m := range managers {
			// PartialSummary ages idle histories out; keep them fresh.
			m.ReportTask(report(i * 64))
			partials[i] = m.PartialSummary()
		}
	})/1e3, microReps*8)
	par := map[string]int{"work": 512}
	const merges = 64
	out.set("qos.merge_us", timeOp(microReps, merges, func() {
		for i := 0; i < merges; i++ {
			qos.MergePartials(par, partials...)
		}
	})/1e3, microReps*merges)
	out.set("qos.merge_allocs", allocsOf(merges, func() { qos.MergePartials(par, partials...) }), merges)
}

func microSketch(seed int64, out *metricSet) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()) * 1e-3
	}
	a, b := sketch.NewDefault(), sketch.NewDefault()
	n := len(vals)
	out.set("sketch.add_ns", timeOp(microReps, n, func() {
		for _, v := range vals {
			a.Add(v)
		}
	}), microReps*n)
	for _, v := range vals {
		b.Add(v * 1.5)
	}
	const merges = 1 << 10
	out.set("sketch.merge_us", timeOp(microReps, merges, func() {
		for i := 0; i < merges; i++ {
			a.Merge(b)
		}
	})/1e3, microReps*merges)
	const queries = 1 << 14
	out.set("sketch.quantile_ns", timeOp(microReps, queries, func() {
		for i := 0; i < queries; i++ {
			microSink += a.Quantile(0.5 + float64(i%50)/100)
		}
	}), microReps*queries)

	p := probe.NewProbeSetSeeded(seed).Probe("bench")
	p.BoundSeconds = 0.02
	out.set("probe.record_ns", timeOp(microReps, n, func() {
		for _, v := range vals {
			p.Record(v)
		}
		p.AdjSnapshot()
		p.RecSnapshot()
	}), microReps*n)
}

// capturedControl is a short elastic PrimeTester simulation's control
// input: the summary of every adjustment interval, for replay through
// qos and core.
type capturedControl struct {
	cfg   sim.Config
	infos []sim.AdjustmentInfo
}

func captureControl(seed int64) (*capturedControl, error) {
	opts := apps.ScalePrimeTesterOptions(apps.PrimeTesterOptions{
		Sources: 32, Sinks: 32, PrimeTesters: 128, MinPT: 1, MaxPT: 520,
		Schedule:        &workload.StepSchedule{WarmUpRate: 10000, StepDelta: 10000, IncrementSteps: 2, StepDuration: 20},
		Mode:            sim.BatchAdaptive,
		ConstraintBound: 20 * time.Millisecond,
		Elastic:         true,
		WorkerNodes:     130,
		SlotsPerNode:    5,
		Seed:            seed,
	}, 16)
	cfg, probes, err := apps.BuildPrimeTester(opts)
	if err != nil {
		return nil, err
	}
	c := &capturedControl{}
	cfg.OnAdjust = func(info sim.AdjustmentInfo) { c.infos = append(c.infos, info) }
	s, err := sim.New(cfg, probes)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	c.cfg = cfg
	return c, nil
}

// parallelismAt returns the degree of parallelism of every vertex as the
// summary recorded it, falling back to the graph's initial value.
func parallelismAt(cfg sim.Config, s *qos.Summary) map[string]int {
	par := make(map[string]int)
	for _, v := range cfg.Graph.Vertices() {
		par[v.Name] = v.Parallelism
		if vs, ok := s.Vertex(v.Name); ok {
			par[v.Name] = vs.Parallelism
		}
	}
	return par
}

// controlReplay pushes captured summaries through the control path the
// way a runtime's adjustment tick does, one span per call, and returns
// the per-call durations by span name.
func controlReplay(cfg sim.Config, infos []sim.AdjustmentInfo, log *spanLog) map[string][]float64 {
	strategy := cfg.Scaler.Strategy
	controller := qos.NewBatchingController(strategy.Batching)
	controller.SetElastic(cfg.Elastic)
	durs := make(map[string][]float64)
	call := func(name string, id uint64, fn func()) {
		start := time.Now()
		fn()
		end := time.Now()
		log.add(name, "replay", id, start, end)
		durs[name] = append(durs[name], float64(end.Sub(start).Nanoseconds()))
	}
	for i, info := range infos {
		id := uint64(i + 1)
		s := info.Summary
		if s == nil {
			continue
		}
		current := parallelismAt(cfg, s)
		call("qos.batching_update", id, func() { controller.Update(s, cfg.Constraints) })
		for ci, con := range cfg.Constraints {
			if !s.Covers(con.Sequence) {
				continue
			}
			var sm *core.SequenceModel
			var err error
			call("core.build_model", id, func() {
				sm, err = core.BuildSequenceModel(cfg.Graph, con.Sequence, s, strategy.Model)
			})
			if err != nil || info.Decision == nil || ci >= len(info.Decision.PerConstraint) {
				continue
			}
			if limit := info.Decision.PerConstraint[ci].QueueWaitLimit; limit > 0 {
				call("core.rebalance", id, func() { core.Rebalance(sm, limit, nil) })
			}
		}
		call("core.decide", id, func() { core.ScaleReactively(strategy, cfg.Graph, cfg.Constraints, s, current) })
	}
	return durs
}

func microControl(seed int64, out *metricSet) error {
	c, err := captureControl(seed)
	if err != nil {
		return fmt.Errorf("micro: control capture: %w", err)
	}
	durs := controlReplay(c.cfg, c.infos, nil)
	for name, metric := range map[string]string{
		"qos.batching_update": "qos.batching_update_us",
		"core.build_model":    "core.build_model_us",
		"core.rebalance":      "core.rebalance_us",
		"core.decide":         "core.decide_us",
	} {
		out.set(metric, median(durs[name])/1e3, len(durs[name]))
	}

	// Allocation counts on the busiest captured interval that took the
	// Rebalance path.
	for i := len(c.infos) / 2; i < len(c.infos); i++ {
		info := c.infos[i]
		if info.Summary == nil || info.Decision == nil || len(info.Decision.PerConstraint) == 0 {
			continue
		}
		limit := info.Decision.PerConstraint[0].QueueWaitLimit
		con := c.cfg.Constraints[0]
		sm, err := core.BuildSequenceModel(c.cfg.Graph, con.Sequence, info.Summary, c.cfg.Scaler.Strategy.Model)
		if limit <= 0 || err != nil {
			continue
		}
		current := parallelismAt(c.cfg, info.Summary)
		out.set("core.rebalance_allocs", allocsOf(64, func() { core.Rebalance(sm, limit, nil) }), 64)
		out.set("core.decide_allocs", allocsOf(64, func() {
			core.ScaleReactively(c.cfg.Scaler.Strategy, c.cfg.Graph, c.cfg.Constraints, info.Summary, current)
		}), 64)
		break
	}

	fitter := core.NewTailFitter(core.DefaultTailFitterConfig(), 0.99)
	const n = 1 << 16
	out.set("core.tail_observe_ns", timeOp(microReps, n, func() {
		for i := 0; i < n; i++ {
			fitter.Observe("work", 0.99, core.TailWindow{Count: 64, MeanWait: 1e-3, TailWait: 4e-3 + float64(i%8)*1e-4})
		}
	}), microReps*n)

	// Telemetry's per-interval scrape over the same captured summaries.
	tel := obs.NewTelemetry(0)
	var scrapes []float64
	for i, info := range c.infos {
		if info.Summary == nil {
			continue
		}
		par := parallelismAt(c.cfg, info.Summary)
		start := time.Now()
		tel.ObserveInterval(float64(i), info.Summary, info.Decision, par)
		scrapes = append(scrapes, float64(time.Since(start).Nanoseconds()))
	}
	out.set("obs.telemetry_interval_us", median(scrapes)/1e3, len(scrapes))
	return nil
}

func microObs(out *metricSet) {
	tr := obs.NewTracer(1)
	const n = 1 << 16
	out.set("obs.tracer_span_ns", timeOp(microReps, n, func() {
		for i := 0; i < n; i++ {
			now := float64(i) * 1e-5
			sp := tr.StartSpan(now)
			sp.Hop("work", "src->work", 1e-4, 0, 2e-5, 3e-6)
			sp.Hop("sink", "work->sink", 1e-4, 0, 2e-5, 1e-6)
			sp.Finish(now + 3e-4)
		}
	}), microReps*n)
}

// checkRebalance compares core.Rebalance with exhaustive search on a
// seeded 3-vertex instance: the total parallelism must be the optimum.
func checkRebalance(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	sm := &core.SequenceModel{}
	for i := 0; i < 3; i++ {
		sm.Vertices = append(sm.Vertices, &core.VertexModel{
			Name: string(rune('a' + i)), Current: 1, Min: 1, Max: 24,
			A: 0.01 + rng.Float64()*0.2, B: rng.Float64() * 8, E: 1,
		})
	}
	// At full scale-out every vertex waits under 0.21/16 s, so a limit of
	// 50 ms or more is always feasible and the check never passes
	// vacuously.
	limit := 0.05 + rng.Float64()*0.2
	best := math.MaxInt
	p := make([]int, 3)
	for p[0] = 1; p[0] <= 24; p[0]++ {
		for p[1] = 1; p[1] <= 24; p[1]++ {
			for p[2] = 1; p[2] <= 24; p[2]++ {
				if sum := p[0] + p[1] + p[2]; sum < best && sm.TotalWait(p) <= limit {
					best = sum
				}
			}
		}
	}
	got, err := core.Rebalance(sm, limit, nil)
	if best == math.MaxInt {
		return fmt.Errorf("rebalance check: instance infeasible at limit %v", limit)
	}
	if err != nil {
		return fmt.Errorf("rebalance check: optimum total %d exists, Rebalance failed: %w", best, err)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != best {
		return fmt.Errorf("rebalance check: Rebalance total %d, optimum %d (limit %v)", total, best, limit)
	}
	return nil
}
