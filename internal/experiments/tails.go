package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"nephelix/internal/apps"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// TailsOptions parameterizes the tail-latency observability experiment:
// the TwitterSentiment job under its bursty tweet trace, with the
// probe streams captured exactly so the quantile sketches can be
// validated against ground truth.
type TailsOptions struct {
	// Scale divides the trace rates and parallelism (as in Figure 8).
	Scale int
	// Duration truncates the trace (0 = full 6000 s). The default quick
	// variant covers the 900 s burst and the main 2300 s burst.
	Duration float64
	Seed     int64
}

// tailsSampleEvery is the tracer's head-sampling period for per-hop
// attribution: every eighth source record carries a span.
const tailsSampleEvery = 8

// TailsQuick returns the laptop-scale configuration.
func TailsQuick() TailsOptions { return TailsOptions{Scale: 4, Duration: 2600, Seed: 1} }

// TailsPaper runs the full-scale trace end to end.
func TailsPaper() TailsOptions { return TailsOptions{Scale: 1, Seed: 1} }

// TailsResult aggregates the run, the sketch validation, the p99
// attribution and the SLO accounting.
type TailsResult struct {
	// Validation holds one sketch-vs-exact comparison per probe and
	// quantile (probe-major, in tailScalerProbes and tailsQuantiles
	// order): the relative error |sketch−exact|/exact of the probe's
	// quantile estimate from its mergeable sketch against the
	// nearest-rank value of the exactly captured latency stream.
	// MaxRelErr is the worst (must stay within the sketches'
	// relative-error bound, sketch.DefaultAlpha).
	Validation []float64
	MaxRelErr  float64

	// Attribution decomposes the sampled end-to-end latency per hop at
	// p99 — which vertex or edge dominates the tail vs the mean.
	Attribution obs.TailAttributionReport

	// SLO is the final per-constraint error-budget state.
	SLO []obs.SLOStatus

	Checks CheckList
}

// tailsQuantiles are the validated quantiles.
var tailsQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// RunTails executes the tail-latency observability experiment. env's
// recorder and telemetry (SLO gauges, tail quantiles, hop sketches)
// observe the run; the tracer is the experiment's own, sampling more
// densely than env's.
func RunTails(env Env, opts TailsOptions) (*TailsResult, error) {
	orDefault(&opts.Scale, TailsQuick().Scale)
	appOpts := apps.DefaultTwitterSentimentOptions()
	appOpts.Seed = opts.Seed
	env.Tracer = obs.NewTracer(tailsSampleEvery)
	exact := map[string]*[]float64{}
	var probes *sim.ProbeSet
	_, err := runTweets("tails", appOpts, opts.Scale, opts.Duration, func(cfg *sim.Config, ps *sim.ProbeSet) {
		env.observe(cfg)
		// Capture the exact probe streams: every probed record's latency,
		// in arrival order, next to the probe's own sketch ingest.
		probes = ps
		for _, name := range tailScalerProbes {
			buf := make([]float64, 0, 1<<16)
			exact[name] = &buf
			ps.Probe(name).Tap = func(latency float64) { buf = append(buf, latency) }
		}
	})
	if err != nil {
		return nil, err
	}

	res := &TailsResult{}
	for _, name := range tailScalerProbes {
		samples := *exact[name]
		p := probes.Probe(name)
		for _, q := range tailsQuantiles {
			ex := sketch.NearestRankOf(samples, q)
			relErr := 0.0
			if ex > 0 {
				relErr = math.Abs(p.TotalQuantile(q)-ex) / ex
			}
			if relErr > res.MaxRelErr {
				res.MaxRelErr = relErr
			}
			res.Validation = append(res.Validation, relErr)
		}
	}
	res.Attribution = env.Tracer.TailAttribution(0.99)
	res.SLO = env.Telemetry.SLOSnapshot()
	res.Checks = tailsChecks(res, exact)
	return res, nil
}

// tailsChecks asserts the observability layer's own guarantees.
func tailsChecks(res *TailsResult, exact map[string]*[]float64) CheckList {
	var checks CheckList
	var captured int
	for _, buf := range exact {
		captured += len(*buf)
	}
	checks.Add("exact streams captured",
		"both probe paths produced ground-truth latency samples",
		fmt.Sprintf("%d samples", captured),
		captured > 1000)
	checks.Add("sketch relative-error bound",
		fmt.Sprintf("every quantile within α=%g of the exact nearest-rank value", sketch.DefaultAlpha),
		fmt.Sprintf("max rel err %.5f over %d comparisons", res.MaxRelErr, len(res.Validation)),
		res.MaxRelErr <= sketch.DefaultAlpha+1e-12)
	checks.Add("hops attributed",
		"per-hop sketches cover the sampled spans",
		fmt.Sprintf("%d hops, e2e n=%d", len(res.Attribution.Hops), res.Attribution.E2ECount),
		len(res.Attribution.Hops) > 0 && res.Attribution.E2ECount > 100)
	checks.Add("tail dominance identified",
		"a dominant hop exists at the mean and at p99",
		fmt.Sprintf("mean: %s; p99: %s", res.Attribution.DominantMean, res.Attribution.DominantTail),
		res.Attribution.DominantMean != "" && res.Attribution.DominantTail != "")
	var sloOK, withObs int
	for _, st := range res.SLO {
		if st.Count > 0 {
			withObs++
		}
		if st.WindowIntervals > 0 && st.BadFraction >= 0 && st.BadFraction <= 1 {
			sloOK++
		}
	}
	checks.Add("SLO budgets tracked",
		"both latency constraints accumulate error-budget state",
		fmt.Sprintf("%d targets, %d with observations", len(res.SLO), withObs),
		len(res.SLO) == 2 && withObs == 2 && sloOK == len(res.SLO))
	// The tail quantiles the dashboard draws must be monotone.
	e := res.Attribution
	checks.Add("e2e quantiles monotone",
		"p50 ≤ p95 ≤ p99 ≤ p999 on the sampled end-to-end stream",
		fmt.Sprintf("p50=%.3fs p95=%.3fs p99=%.3fs p999=%.3fs", e.E2EP50, e.E2EP95, e.E2EP99, e.E2EP999),
		e.E2EP50 <= e.E2EP95 && e.E2EP95 <= e.E2EP99 && e.E2EP99 <= e.E2EP999)
	return checks
}

// tailsRow is the table row: the p99 attribution as CSV — the end-to-end
// distribution first, then one row per hop with its mean/tail shares —
// and the telemetry store.
func tailsRow(env Env) (*Outcome, error) {
	res, err := RunTails(env, pick(env.Paper, TailsQuick(), TailsPaper()))
	if err != nil {
		return nil, err
	}
	a := res.Attribution
	out := &Outcome{Checks: res.Checks, Lines: []string{strings.TrimSuffix(a.String(), "\n")}}
	for _, st := range res.SLO {
		out.Lines = append(out.Lines, fmt.Sprintf("  SLO %s: p%g ≤ %.0f ms, budget remaining %.2f, burn %.2f, violations %d",
			st.Constraint, st.Quantile*100, st.BoundSeconds*1000,
			st.ErrorBudgetRemaining, st.BurnRate, st.Violations))
	}
	out.Artifacts = []Artifact{
		printedCSV("tails.csv", fmt.Sprintf("%d hops", len(a.Hops)), func(w io.Writer) {
			fmt.Fprintln(w, "kind,name,count,mean_s,p50_s,p95_s,p99_s,p999_s,mean_share,tail_share")
			fmt.Fprintf(w, "e2e,e2e,%d,%g,%g,%g,%g,%g,,\n",
				a.E2ECount, a.E2EMean, a.E2EP50, a.E2EP95, a.E2EP99, a.E2EP999)
			for _, h := range a.Hops {
				fmt.Fprintf(w, "%s,%s,%d,%g,%g,%g,%g,%g,%g,%g\n",
					h.Kind, h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.P999,
					h.MeanShare, h.TailShare)
			}
		}),
		TimeseriesJSON("tails_timeseries.json", env.Telemetry),
	}
	return out, nil
}
