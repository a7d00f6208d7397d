package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// The two simulator workloads. Each is an open loop in virtual time: the
// schedule offers items whether or not the simulated job keeps up. Their
// quality metrics are byte-deterministic per seed, so every run
// simulates the job several times and compares.

// simCase pins one simulator workload. The virtual length scales with
// --seconds so that, on the reference box, the two measured runs take
// about as long as an engine workload's windows.
type simCase struct {
	name string
	// probe is the end-to-end path the latency metrics read.
	probe string
	build func(seed int64, seconds int) (sim.Config, *sim.ProbeSet, error)
}

var simCases = map[string]simCase{
	"sim-primetester": {name: "sim-primetester", probe: apps.PrimeProbe, build: buildPrimeTester},
	"sim-tweets-p99":  {name: "sim-tweets-p99", probe: apps.SentimentProbe, build: buildTweets},
}

// simScale divides both topologies and their offered rates; per-task
// load and latency dynamics are those of the paper-scale job.
const simScale = 4

// buildPrimeTester is the Fig. 6 elastic run: adaptive batching under a
// 20 ms mean constraint, step load with 6·seconds-long steps (the
// paper's 60 s at the default --seconds 10), testers in [1, 130].
func buildPrimeTester(seed int64, seconds int) (sim.Config, *sim.ProbeSet, error) {
	opts := apps.ScalePrimeTesterOptions(apps.PrimeTesterOptions{
		Sources: 32, Sinks: 32, PrimeTesters: 128, MinPT: 1, MaxPT: 520,
		Schedule: &workload.StepSchedule{
			WarmUpRate: 10000, StepDelta: 10000, IncrementSteps: 4, StepDuration: 6 * float64(seconds),
		},
		Mode:            sim.BatchAdaptive,
		ConstraintBound: 20 * time.Millisecond,
		Elastic:         true,
		WorkerNodes:     130,
		SlotsPerNode:    5,
		Seed:            seed,
	}, simScale)
	return apps.BuildPrimeTester(opts)
}

// buildTweets is TwitterSentiment on the bursty default trace with both
// constraints at p99, for the first 260·seconds virtual seconds (2600 s
// at the default, which covers the bursts at 900 s and 2300 s). A
// percentile constraint's fit windows live in telemetry, so telemetry is
// part of the workload, not of the traced pass.
func buildTweets(seed int64, seconds int) (sim.Config, *sim.ProbeSet, error) {
	o := apps.DefaultTwitterSentimentOptions()
	o.Seed = seed
	o.ConstraintQuantile = 0.99
	tr := *o.Schedule
	tr.BaseRate /= simScale
	tr.DailyAmplitude /= simScale
	tr.Bursts = append([]workload.Burst(nil), tr.Bursts...)
	for i := range tr.Bursts {
		tr.Bursts[i].ExtraRate /= simScale
	}
	o.Schedule = &tr
	o.Sources /= simScale
	o.InitialHT /= simScale
	o.InitialFilter /= simScale
	o.InitialSentiment /= simScale
	o.MaxElastic /= simScale
	o.WorkerNodes /= simScale
	cfg, probes, err := apps.BuildTwitterSentiment(o)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Duration = 260 * float64(seconds)
	cfg.Telemetry = obs.NewTelemetry(0)
	return cfg, probes, nil
}

// simRun is one finished simulation.
type simRun struct {
	cfg     sim.Config
	res     *sim.Result
	probes  *sim.ProbeSet
	newTime time.Duration
	wall    time.Duration
	items   int64
	virtual float64 // virtual seconds simulated
	// seg and segCPU are the wall and process CPU time of each adjustment
	// interval, in order.
	seg    []time.Duration
	segCPU []float64
	infos  []sim.AdjustmentInfo // traced pass only
	// heapPeak and mallocs are sampled on the traced pass only.
	heapPeak uint64
	mallocs  uint64
}

// runSim builds and runs the case once. log may be nil (untraced).
func runSim(c simCase, seed int64, seconds int, log *spanLog) (*simRun, error) {
	r := &simRun{}
	var cfg sim.Config
	var err error
	log.timed("apps.build", "pass", 0, func() { cfg, r.probes, err = c.build(seed, seconds) })
	if err != nil {
		return nil, err
	}
	var prev time.Time
	var prevCPU float64
	cfg.OnAdjust = func(info sim.AdjustmentInfo) {
		now, cpu := time.Now(), cpuSeconds()
		r.seg = append(r.seg, now.Sub(prev))
		r.segCPU = append(r.segCPU, cpu-prevCPU)
		r.virtual = info.Now
		if log != nil {
			log.add("adjust", "sim.run", uint64(len(r.seg)), prev, now)
			r.infos = append(r.infos, info)
			if len(r.seg)%16 == 0 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > r.heapPeak {
					r.heapPeak = m.HeapAlloc
				}
			}
		}
		prev, prevCPU = time.Now(), cpuSeconds()
	}
	r.cfg = cfg
	var s *sim.Sim
	t0 := time.Now()
	s, err = sim.New(cfg, r.probes)
	r.newTime = time.Since(t0)
	log.add("sim.new", "pass", 0, t0, time.Now())
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	if log != nil {
		runtime.ReadMemStats(&m0)
	}
	prev, prevCPU = time.Now(), cpuSeconds()
	start := prev
	r.res, err = s.Run()
	r.wall = time.Since(start)
	log.add("sim.run", "pass", 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	if log != nil {
		runtime.ReadMemStats(&m1)
		r.mallocs = m1.Mallocs - m0.Mallocs
	}
	for _, n := range r.res.Emitted {
		r.items += n
	}
	return r, nil
}

// fingerprint renders every quality figure of a run exactly (shortest
// round-tripping float form), for the same-seed determinism check.
func (r *simRun) fingerprint() string {
	names := make([]string, 0, len(r.res.Probes))
	for n := range r.res.Probes {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("taskhours=%v ups=%d downs=%d dropped=%d items=%d cpu=%v",
		r.res.TaskHours, r.res.ScaleUps, r.res.ScaleDowns, r.res.DroppedItems, r.items, r.res.MeanCPUUtilization)
	for _, n := range names {
		s += fmt.Sprintf(" %s=%+v", n, r.res.Probes[n])
	}
	return s
}

// simSetup times one set-up: build, sim.New and a short run up to the
// first latency the probe records.
func simSetup(c simCase, seed int64) (time.Duration, error) {
	t0 := time.Now()
	cfg, probes, err := c.build(seed, 1)
	if err != nil {
		return 0, err
	}
	cfg.Duration = 5
	var first time.Duration
	probes.Probe(c.probe).Tap = func(float64) {
		if first == 0 {
			first = time.Since(t0)
		}
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		return 0, err
	}
	if _, err := s.Run(); err != nil {
		return 0, err
	}
	if first == 0 {
		return 0, fmt.Errorf("%s: set-up run delivered no item", c.name)
	}
	return first, nil
}

// simRepeats is how many times the untraced pass simulates the job. The
// runs do identical work; see quietest.
const simRepeats = 3

// quietest sums, over the adjustment intervals, the least wall and CPU
// time any of the runs took for that interval. The runs do identical
// work and interference from the shared host can only slow a stretch of
// one down, so the sum reads the undisturbed simulator.
func quietest(runs []*simRun) (wall time.Duration, cpu float64) {
	for i := range runs[0].seg {
		w, c := runs[0].seg[i], runs[0].segCPU[i]
		for _, r := range runs[1:] {
			w, c = min(w, r.seg[i]), min(c, r.segCPU[i])
		}
		wall += w
		cpu += c
	}
	return wall, cpu
}

// runSimUntraced is the --trace 0 run of a simulator workload. Set-ups
// are timed before, between and after the measured runs, so that their
// median spans the run rather than one instant of the host's mood.
func runSimUntraced(c simCase, seed int64, seconds int) (*result, error) {
	res := newResult()
	var setups []float64
	timeSetups := func() error {
		for i := 0; i < setupRepeats/(simRepeats+1); i++ {
			d, err := simSetup(c, seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	var runs []*simRun
	for i := 0; i < simRepeats; i++ {
		if err := timeSetups(); err != nil {
			return nil, err
		}
		r, err := runSim(c, seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if err := timeSetups(); err != nil {
		return nil, err
	}
	res.metrics.set("setup_s", median(setups), len(setups))

	a := runs[0]
	line := fmt.Sprintf("%d same-seed runs:", simRepeats)
	for _, r := range runs {
		line += fmt.Sprintf(" %.2f s", r.wall.Seconds())
		if fa, fr := a.fingerprint(), r.fingerprint(); fa != fr || len(a.seg) != len(r.seg) {
			res.failf("same seed, different quality metrics:\n      %s\n      %s", fa, fr)
			return res, nil
		}
	}
	wall, cpu := quietest(runs)
	res.notef("%s wall; %.2f s taking the quickest of each of %d adjustment intervals", line, wall.Seconds(), len(a.seg))
	res.metrics.set("throughput_rec_s", float64(a.items)/wall.Seconds(), len(a.seg))
	res.metrics.set("cpu_s_per_mrec", cpu/float64(a.items)*1e6, len(a.seg))

	p := a.probes.Probe(c.probe)
	samples := p.TotalSamples()
	res.metrics.set("latency_p50_ms", quantile(samples, 0.5)*1e3, len(samples))
	res.metrics.set("latency_p90_ms", quantile(samples, 0.9)*1e3, len(samples))
	sk := p.TotalSketch()
	if n := sk.Count(); n > 0 {
		res.metrics.set("ontime_frac", 1-float64(sk.CountAbove(p.BoundSeconds))/float64(n), int(n))
	}
	fulfil, intervals := 1.0, 0
	for _, ps := range a.res.Probes {
		fulfil = min(fulfil, ps.Fulfillment)
		intervals = ps.Intervals
	}
	res.metrics.set("fulfil_frac", fulfil, intervals)
	res.metrics.set("task_hours", a.res.TaskHours, 0)
	res.attempted = uint64(a.items)
	res.failed = uint64(a.res.DroppedItems)
	return res, nil
}
