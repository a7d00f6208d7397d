package experiments

import (
	"bufio"
	"fmt"
	"io"

	"nephelix/internal/apps"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// TailScalerOptions parameterizes the tail-aware scaling experiment:
// the TwitterSentiment job under the bursty tweet trace, scaled with
// mean constraints (the paper's semantics) versus percentile
// constraints (js, ℓ_p99, t), plus a steady no-burst run that validates
// the fitted tail model against the simulator's measured percentiles.
type TailScalerOptions struct {
	// Scale divides trace rates and parallelism (reported values scaled
	// back).
	Scale int
	// Duration truncates the 6000 s trace; the default 2600 s covers the
	// 900 s burst and the large 2300 s burst.
	Duration float64
	// Quantile is the tail constraint's quantile (default 0.99).
	Quantile float64
	Seed     int64
}

// TailScalerQuick returns the laptop-scale configuration.
func TailScalerQuick() TailScalerOptions { return TailScalerOptions{Seed: 1}.withDefaults() }

// withDefaults fills unset fields with the quick-scale values.
func (o TailScalerOptions) withDefaults() TailScalerOptions {
	orDefault(&o.Scale, 4)
	orDefault(&o.Duration, 2600)
	if o.Quantile <= 0 || o.Quantile >= 1 {
		o.Quantile = 0.99
	}
	return o
}

// TailScalerVariant aggregates one run of the experiment.
type TailScalerVariant struct {
	// Name is "elastic-mean", "elastic-tail" or "elastic-tail-steady".
	Name string
	// Quantile is the quantile the scaler was constrained on (0 = the
	// paper's mean semantics; the probes still measure tail fulfillment).
	Quantile  float64
	TaskHours float64
	ScaleUps  int
	ScaleDown int
	Probes    map[string]sim.ProbeSummary
	// Drift holds the run's final residual drift flags.
	Drift []obs.DriftFlag
	// TailRelErr is the mean |measured−predicted|/measured of the tail
	// wait predictions scored by the residual monitor, averaged over the
	// cells with scored samples (TailRelErrSamples in total).
	TailRelErr        float64
	TailRelErrSamples int64
}

// TailScalerResult holds the three runs and the trade-off checks.
type TailScalerResult struct {
	Options TailScalerOptions

	// Mean scales on the paper's mean constraints; Tail on percentile
	// constraints; Steady is the tail scaler on the burst-free trace.
	Mean   TailScalerVariant
	Tail   TailScalerVariant
	Steady TailScalerVariant

	// GapProbe is the probe with the largest tail-fulfillment gain and
	// Gap its (tail − mean) p99-fulfillment gap in [−1, 1].
	GapProbe string
	Gap      float64
	// TaskHourRatio is Tail.TaskHours / Mean.TaskHours — the resource
	// price of the tail guarantee.
	TaskHourRatio float64

	Checks CheckList
}

// tailScalerProbes are the measured constraint paths.
var tailScalerProbes = []string{apps.HotTopicsProbe, apps.SentimentProbe}

// RunTailScaler executes the tail-aware scaling experiment: three
// independent simulations fanned across the worker pool. env's recorder
// and telemetry observe the tail-aware bursty run (so a live
// introspection server exposes its κ gauges and SLO state); the other
// two get a telemetry of their own.
func RunTailScaler(env Env, opts TailScalerOptions) (*TailScalerResult, error) {
	opts = opts.withDefaults()
	res := &TailScalerResult{Options: opts}

	own := func() Env { return Env{Telemetry: obs.NewTelemetry(0)} }
	runs := []tailScalerRun{
		{name: "elastic-mean", quantile: 0, env: own(), out: &res.Mean},
		{name: "elastic-tail", quantile: opts.Quantile, env: Env{Recorder: env.Recorder, Telemetry: env.Telemetry}, out: &res.Tail},
		{name: "elastic-tail-steady", quantile: opts.Quantile, steady: true, env: own(), out: &res.Steady},
	}
	if err := forEachRun(len(runs), func(i int) error { return runs[i].run(opts) }); err != nil {
		return nil, err
	}

	res.GapProbe, res.Gap = tailScalerGap(&res.Mean, &res.Tail)
	if res.Mean.TaskHours > 0 {
		res.TaskHourRatio = res.Tail.TaskHours / res.Mean.TaskHours
	}
	res.Checks = tailScalerChecks(res)
	return res, nil
}

// tailScalerRun is one simulation of the experiment, observed by env's
// instruments; the drift and tail-error figures come from env's
// telemetry.
type tailScalerRun struct {
	name     string
	quantile float64 // scaler-visible constraint quantile
	steady   bool
	env      Env
	out      *TailScalerVariant
}

// run simulates r and fills r.out.
func (r tailScalerRun) run(opts TailScalerOptions) error {
	appOpts := apps.DefaultTwitterSentimentOptions()
	appOpts.Seed = opts.Seed
	appOpts.ConstraintQuantile = r.quantile
	if r.steady {
		tr := *appOpts.Schedule
		tr.Bursts = nil
		appOpts.Schedule = &tr
	}
	out, err := runTweets("tailscaler "+r.name, appOpts, opts.Scale, opts.Duration, func(cfg *sim.Config, probes *sim.ProbeSet) {
		r.env.observe(cfg)
		if r.quantile == 0 {
			// The mean run's scaler stays tail-blind, but the probes
			// still measure per-interval p99 fulfillment so the two
			// variants are compared on the same yardstick.
			for _, name := range tailScalerProbes {
				probes.SetQuantile(name, opts.Quantile)
			}
		}
	})
	if err != nil {
		return err
	}
	v := r.out
	v.Name = r.name
	v.Quantile = r.quantile
	v.TaskHours = out.TaskHours
	v.ScaleUps = out.ScaleUps
	v.ScaleDown = out.ScaleDowns
	v.Probes = make(map[string]sim.ProbeSummary, len(tailScalerProbes))
	for _, name := range tailScalerProbes {
		v.Probes[name] = out.Probes[name]
	}
	residuals := r.env.Telemetry.Residuals()
	v.Drift = residuals.DriftFlags()
	var relErrSum float64
	for _, st := range residuals.Snapshot() {
		if r.quantile > 0 && st.RelErrSamples > 0 {
			relErrSum += st.MeanAbsRelErr * float64(st.RelErrSamples)
			v.TailRelErrSamples += st.RelErrSamples
		}
	}
	if v.TailRelErrSamples > 0 {
		v.TailRelErr = relErrSum / float64(v.TailRelErrSamples)
	}
	return nil
}

// tailScalerGap finds the probe where percentile constraints gained the
// most p99 fulfillment over mean constraints.
func tailScalerGap(mean, tail *TailScalerVariant) (string, float64) {
	probe, gap := "", -1.0
	for _, name := range tailScalerProbes {
		g := tail.Probes[name].TailFulfillment - mean.Probes[name].TailFulfillment
		if g > gap {
			probe, gap = name, g
		}
	}
	return probe, gap
}

// tailScalerChecks asserts the trade-off the experiment exists to show:
// the mean scaler satisfies its mean constraint while the tail silently
// violates; the tail scaler buys the violated percentile back for a
// bounded task-hour premium; and on the steady trace the fitted tail
// model's predictions track the measured percentiles without drift.
func tailScalerChecks(res *TailScalerResult) CheckList {
	var checks CheckList
	q := model.QuantileLabel(res.Options.Quantile)
	mp := res.Mean.Probes[res.GapProbe]
	tp := res.Tail.Probes[res.GapProbe]
	checks.Add("mean scaler blind to the tail",
		fmt.Sprintf("elastic-mean meets its mean constraint on %s yet leaves a %s violation", res.GapProbe, q),
		fmt.Sprintf("mean fulfillment %.0f%%, %s fulfillment %.0f%%", mp.Fulfillment*100, q, mp.TailFulfillment*100),
		mp.Fulfillment >= 0.70 && mp.TailFulfillment <= 0.90 &&
			mp.Fulfillment-mp.TailFulfillment >= 0.05)
	checks.Add("tail scaler resolves the violation",
		fmt.Sprintf("elastic-tail lifts %s fulfillment on %s by ≥5 points", q, res.GapProbe),
		fmt.Sprintf("%.0f%% → %.0f%% (gap %+.0f points)", mp.TailFulfillment*100, tp.TailFulfillment*100, res.Gap*100),
		res.Gap >= 0.05)
	checks.Add("tail scaler acted",
		"the percentile constraint triggered scale-ups",
		fmt.Sprintf("%d scale-ups, %d scale-downs", res.Tail.ScaleUps, res.Tail.ScaleDown),
		res.Tail.ScaleUps > 0)
	checks.Add("bounded task-hour premium",
		"the tail guarantee costs at most 5× the mean scaler's task-hours",
		fmt.Sprintf("%.1f vs %.1f task-hours (%.2f×)", res.Tail.TaskHours, res.Mean.TaskHours, res.TaskHourRatio),
		res.Mean.TaskHours > 0 && res.TaskHourRatio <= 5.0)
	checks.Add("tail predictions validated",
		fmt.Sprintf("predicted %s waits scored against measured window percentiles on the steady trace", q),
		fmt.Sprintf("mean |rel err| %.2f over %d scored pairs", res.Steady.TailRelErr, res.Steady.TailRelErrSamples),
		res.Steady.TailRelErrSamples >= 8 && res.Steady.TailRelErr <= 1.0)
	checks.Add("residuals quiet on steady trace",
		"no drift flags when the trace has no bursts",
		fmt.Sprintf("%d drift flags", len(res.Steady.Drift)),
		len(res.Steady.Drift) == 0)
	return checks
}

// tailScalerRow is the table row: the trade-off as CSV — one line per
// variant and probe with fulfillment under both semantics and the
// resource bill — and the tail-aware run's telemetry store.
func tailScalerRow(env Env) (*Outcome, error) {
	res, err := RunTailScaler(env, TailScalerQuick())
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Checks: res.Checks,
		Lines: []string{
			fmt.Sprintf("  %s fulfillment gap on %s: %+.0f points; task-hour premium %.2f×",
				model.QuantileLabel(res.Options.Quantile), res.GapProbe, res.Gap*100, res.TaskHourRatio),
			fmt.Sprintf("  steady-trace tail model: mean |rel err| %.2f over %d predicted-vs-measured pairs",
				res.Steady.TailRelErr, res.Steady.TailRelErrSamples),
		},
		Artifacts: []Artifact{
			{File: "tailscaler.csv", Write: res.WriteTailScalerCSV, Note: "3 variants"},
			TimeseriesJSON("tailscaler_timeseries.json", env.Telemetry),
		},
	}, nil
}

// WriteTailScalerCSV renders the trade-off: one row per variant and
// probe with fulfillment under both semantics and the resource bill.
func (r *TailScalerResult) WriteTailScalerCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scale := float64(r.Options.Scale)
	fmt.Fprintln(bw, "variant,probe,constraint_quantile,task_hours,scale_ups,scale_downs,mean_fulfillment,tail_fulfillment,mean_ms,p95_ms,p99_ms")
	for _, v := range []*TailScalerVariant{&r.Mean, &r.Tail, &r.Steady} {
		for _, name := range tailScalerProbes {
			p := v.Probes[name]
			fmt.Fprintf(bw, "%s,%s,%g,%g,%d,%d,%g,%g,%g,%g,%g\n",
				v.Name, name, v.Quantile, v.TaskHours*scale, v.ScaleUps, v.ScaleDown,
				p.Fulfillment, p.TailFulfillment,
				p.Mean*1000, p.P95*1000, p.P99*1000)
		}
	}
	return bw.Flush()
}
