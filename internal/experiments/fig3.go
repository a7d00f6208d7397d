package experiments

import (
	"fmt"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/sim"
)

// Fig3Options parameterizes the Figure 3 reproduction: the PrimeTester
// job under static provisioning (50 workers, 200 tester tasks at paper
// scale) across four batching configurations.
type Fig3Options struct {
	// Scale divides all task counts and rates (reported rates are scaled
	// back). Scale 1 is the paper's topology.
	Scale int
	// StepDuration is the phase-step length in seconds (paper: 60).
	StepDuration float64
	// IncrementSteps is the number of increment steps (peak rate =
	// (IncrementSteps+1) × 10⁴ items/s at paper scale).
	IncrementSteps int
	Seed           int64
}

// Fig3Quick returns a laptop-scale configuration preserving per-task
// load: 1/25 topology, 20 s steps.
func Fig3Quick() Fig3Options { return Fig3Options{Seed: 1}.withDefaults() }

// withDefaults fills unset fields with the quick-scale values.
func (o Fig3Options) withDefaults() Fig3Options {
	orDefault(&o.Scale, 25)
	orDefault(&o.StepDuration, 20)
	orDefault(&o.IncrementSteps, 9)
	return o
}

// Fig3Paper returns the paper-scale configuration (50 sources, 200
// testers, 60 s steps). Expect minutes of wall-clock time.
func Fig3Paper() Fig3Options {
	return Fig3Options{Scale: 1, StepDuration: 60, IncrementSteps: 9, Seed: 1}
}

// Fig3ConfigName identifies one of the four compared configurations.
type Fig3ConfigName string

// The four configurations of Section III-B.
const (
	ConfigStorm     Fig3ConfigName = "Storm"
	ConfigNepheleIF Fig3ConfigName = "Nephele-IF"
	Config16KiB     Fig3ConfigName = "Nephele-16KiB"
	Config20ms      Fig3ConfigName = "Nephele-20ms"
)

// fig3Configs lists the four runs: Storm and Nephele-IF both ship
// instantly (the paper includes both to show codebase equivalence; here
// they differ only by seed), 16KiB uses fixed buffers, 20ms the adaptive
// constraint.
var fig3Configs = []struct {
	name  Fig3ConfigName
	mode  sim.BatchMode
	bound time.Duration
	seed  int64
}{
	{ConfigStorm, sim.BatchInstant, 0, 101},
	{ConfigNepheleIF, sim.BatchInstant, 0, 202},
	{Config16KiB, sim.BatchFixedBuffer, 0, 303},
	{Config20ms, sim.BatchAdaptive, 20 * time.Millisecond, 404},
}

// Fig3ConfigResult is the outcome of one configuration's run.
type Fig3ConfigResult struct {
	Name Fig3ConfigName
	Rows []sim.Row
	// WarmUpLatency is the mean end-to-end latency during the warm-up
	// step (seconds).
	WarmUpLatency float64
	// EffectivePeak is the maximum delivered throughput measured at the
	// sinks (items/s, paper scale). Measuring at the sinks rather than at
	// the sources avoids over-reading transient emission spikes while
	// queues fill.
	EffectivePeak float64
	// SteadyLossTime is the first time (s) the source was throttled below
	// 90% of the attempted rate; 0 if never.
	SteadyLossTime float64
}

// Fig3Result aggregates the four configurations plus shape checks.
type Fig3Result struct {
	Options Fig3Options
	Configs map[Fig3ConfigName]*Fig3ConfigResult
	Checks  CheckList
}

// RunFig3 executes the Figure 3 experiment.
func RunFig3(opts Fig3Options) (*Fig3Result, error) {
	opts = opts.withDefaults()
	res := &Fig3Result{Options: opts, Configs: make(map[Fig3ConfigName]*Fig3ConfigResult)}
	scale := float64(opts.Scale)

	for _, cc := range fig3Configs {
		// The paper's schedule and cluster, statically provisioned: 50
		// sources and sinks, 200 testers, four slots per worker.
		base := apps.PaperPrimeTester(200, opts.IncrementSteps, opts.StepDuration, opts.Seed+cc.seed)
		base.Sources, base.Sinks, base.SlotsPerNode = 50, 50, 4
		base.Mode, base.ConstraintBound = cc.mode, cc.bound
		out, err := runPrimeTester("fig3 "+string(cc.name), base, opts.Scale, nil)
		if err != nil {
			return nil, err
		}
		res.Configs[cc.name] = summarizeFig3(cc.name, out, opts.StepDuration, scale)
	}

	res.Checks = fig3Checks(res)
	return res, nil
}

// fig3Row is the table row: one CSV per configuration.
func fig3Row(env Env) (*Outcome, error) {
	opts := pick(env.Paper, Fig3Quick(), Fig3Paper())
	res, err := RunFig3(opts)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Checks: res.Checks}
	for _, cc := range fig3Configs {
		out.Artifacts = append(out.Artifacts, RowsCSV("fig3_"+string(cc.name)+".csv", res.Configs[cc.name].Rows, opts.Scale))
	}
	return out, nil
}

// summarizeFig3 derives the per-config summary metrics from the series.
func summarizeFig3(name Fig3ConfigName, out *sim.Result, stepDur, scale float64) *Fig3ConfigResult {
	c := &Fig3ConfigResult{Name: name, Rows: out.Rows}
	var warmSum float64
	var warmN, throttledRows int
	var prevTime float64
	for _, r := range out.Rows {
		p := r.Probes[apps.PrimeProbe]
		if r.Time <= stepDur && p.Count > 0 {
			warmSum += p.Mean
			warmN++
		}
		delivered := r.Processed[apps.PTSink] * scale
		att := r.Attempted[apps.PTSource] * scale
		eff := r.Effective[apps.PTSource] * scale
		if delivered > c.EffectivePeak {
			c.EffectivePeak = delivered
		}
		// Loss of steady state manifests as backpressure throttling the
		// sources below the attempted rate for consecutive intervals
		// (skip the warm-up step, whose pipeline fill would
		// false-positive for large buffers; require two rows so control
		// transients don't).
		if r.Time > stepDur && att > 0 && eff < 0.9*att {
			throttledRows++
			if c.SteadyLossTime == 0 && throttledRows >= 2 {
				c.SteadyLossTime = prevTime
			}
		} else {
			throttledRows = 0
		}
		prevTime = r.Time
	}
	if warmN > 0 {
		c.WarmUpLatency = warmSum / float64(warmN)
	}
	return c
}

// fig3Checks compares the run against the paper's reported shape.
func fig3Checks(res *Fig3Result) CheckList {
	var checks CheckList
	ifc := res.Configs[ConfigNepheleIF]
	storm := res.Configs[ConfigStorm]
	fixed := res.Configs[Config16KiB]
	adaptive := res.Configs[Config20ms]

	// Warm-up latency ordering: instant < 20 ms constraint < 16 KiB.
	checks.Add("warmup latency ordering",
		"IF < 20ms <= 0.020 < 16KiB",
		fmt.Sprintf("IF=%.4fs 20ms=%.4fs 16KiB=%.3fs", ifc.WarmUpLatency, adaptive.WarmUpLatency, fixed.WarmUpLatency),
		ifc.WarmUpLatency < adaptive.WarmUpLatency &&
			adaptive.WarmUpLatency <= 0.020*1.15 &&
			adaptive.WarmUpLatency < fixed.WarmUpLatency)

	// 16 KiB warm-up latency is in the seconds range (paper: ≈3 s).
	checks.Add("16KiB warmup latency seconds-range",
		"≈3 s", fmt.Sprintf("%.2f s", fixed.WarmUpLatency),
		fixed.WarmUpLatency > 1.0 && fixed.WarmUpLatency < 8.0)

	// Storm ≈ Nephele-IF (same shipping strategy, different codebase).
	checks.Add("Storm equals Nephele-IF",
		"identical strategy, near-equal peaks",
		fmt.Sprintf("Storm=%.0f IF=%.0f items/s", storm.EffectivePeak, ifc.EffectivePeak),
		ratioWithin(storm.EffectivePeak, ifc.EffectivePeak, 0.85, 1.18))

	// Effective-throughput ordering and ratios: IF ≈40k, 20ms ≈52k
	// (+30%), 16KiB ≈63k (+58%).
	checks.Add("effective peak ordering",
		"IF < 20ms < 16KiB",
		fmt.Sprintf("IF=%.0f 20ms=%.0f 16KiB=%.0f", ifc.EffectivePeak, adaptive.EffectivePeak, fixed.EffectivePeak),
		ifc.EffectivePeak < adaptive.EffectivePeak && adaptive.EffectivePeak < fixed.EffectivePeak)
	checks.Add("20ms over IF throughput gain",
		"≈ +30%", fmt.Sprintf("%+.0f%%", 100*(adaptive.EffectivePeak/ifc.EffectivePeak-1)),
		ratioWithin(adaptive.EffectivePeak/ifc.EffectivePeak, 1.30, 0.85, 1.15))
	checks.Add("16KiB over IF throughput gain",
		"≈ +58%", fmt.Sprintf("%+.0f%%", 100*(fixed.EffectivePeak/ifc.EffectivePeak-1)),
		ratioWithin(fixed.EffectivePeak/ifc.EffectivePeak, 1.58, 0.85, 1.15))

	// Steady-state loss ordering: IF first (paper 180 s), then 20 ms
	// (300 s), then 16 KiB (360 s).
	checks.Add("steady-state loss ordering",
		"IF at 180s < 20ms at 300s <= 16KiB at 360s",
		fmt.Sprintf("IF=%.0fs 20ms=%.0fs 16KiB=%.0fs", ifc.SteadyLossTime, adaptive.SteadyLossTime, fixed.SteadyLossTime),
		ifc.SteadyLossTime > 0 && adaptive.SteadyLossTime > 0 && fixed.SteadyLossTime > 0 &&
			ifc.SteadyLossTime < adaptive.SteadyLossTime &&
			adaptive.SteadyLossTime <= fixed.SteadyLossTime)
	return checks
}

// ratioWithin reports whether got/want lies within [lo, hi].
func ratioWithin(got, want, lo, hi float64) bool {
	if want == 0 {
		return false
	}
	r := got / want
	return r >= lo && r <= hi
}
