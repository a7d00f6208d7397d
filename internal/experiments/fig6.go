package experiments

import (
	"fmt"
	"io"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/sim"
)

// Fig6Options parameterizes the Figure 6 reproduction: the PrimeTester
// job with reactive scaling (32 sources, testers elastic in [1, 520],
// 20 ms constraint) against the manually provisioned unelastic
// Nephele-16KiB baseline (175 tester tasks).
type Fig6Options struct {
	// Scale divides task counts and rates (reported values scaled back).
	Scale int
	// StepDuration is the phase-step length in seconds (paper: 60).
	StepDuration float64
	// IncrementSteps: peak rate = (IncrementSteps+1) × 10⁴ items/s; 4
	// keeps the peak at 5 × 10⁴, which the 175-task baseline can absorb
	// without overload (the paper tuned the baseline to exactly that
	// boundary).
	IncrementSteps int
	Seed           int64
}

// Fig6Quick returns the laptop-scale configuration (1/8 topology).
func Fig6Quick() Fig6Options { return Fig6Options{Seed: 1}.withDefaults() }

// withDefaults fills unset fields with the quick-scale values.
func (o Fig6Options) withDefaults() Fig6Options {
	orDefault(&o.Scale, 8)
	orDefault(&o.StepDuration, 20)
	orDefault(&o.IncrementSteps, 4)
	return o
}

// Fig6Paper returns the paper-scale configuration.
func Fig6Paper() Fig6Options {
	return Fig6Options{Scale: 1, StepDuration: 60, IncrementSteps: 4, Seed: 1}
}

// Fig6Result aggregates the elastic run, the baseline run and the shape
// checks.
type Fig6Result struct {
	ElasticRows  []sim.Row
	BaselineRows []sim.Row

	// Fulfillment is the fraction of adjustment intervals in which the
	// elastic run met the 20 ms constraint (paper: ≈91%).
	Fulfillment float64
	// WarmUpMinParallelism is the lowest tester parallelism at the
	// warm-up rate (warm-up step and decrement tail), scaled back to
	// paper scale (paper: dips to ≈36; our service-time CV sits a bit
	// above theirs, so the model holds utilization lower).
	WarmUpMinParallelism int
	// ElasticP95 is the elastic run's overall 95th percentile latency
	// (paper: ≈30 ms in steady state).
	ElasticP95 float64
	// BaselineMean and BaselineP95 are the baseline's whole-run latency
	// floors (paper: ≥348 ms and ≥564 ms).
	BaselineMean float64
	BaselineP95  float64
	// ElasticTaskHours and BaselineTaskHours are at paper scale
	// (task-hours × Scale).
	ElasticTaskHours  float64
	BaselineTaskHours float64
	// ScaleUps/ScaleDowns count elastic actions; the paper notes
	// overscaling followed by corrective scale-downs.
	ScaleUps   int
	ScaleDowns int

	Checks CheckList
}

// RunFig6 executes the Figure 6 experiment.
func RunFig6(opts Fig6Options) (*Fig6Result, error) {
	opts = opts.withDefaults()
	res := &Fig6Result{}
	scale := float64(opts.Scale)

	// The elastic run and the unelastic baseline are independent
	// simulations with their own seeded RNGs; fan them across the worker
	// pool.
	baseline := apps.PaperPrimeTester(175, opts.IncrementSteps, opts.StepDuration, opts.Seed+7)
	baseline.Mode = sim.BatchFixedBuffer
	runOpts := []apps.PrimeTesterOptions{
		// Elastic Nephele-20ms: a deliberately high start; the warm-up dip
		// is the scaler's doing.
		apps.PaperPrimeTester(128, opts.IncrementSteps, opts.StepDuration, opts.Seed).ElasticWithin(20 * time.Millisecond),
		// Unelastic Nephele-16KiB baseline: 175 testers, tuned to the peak.
		baseline,
	}
	names := []string{"elastic", "baseline"}
	outs := make([]*sim.Result, len(runOpts))
	err := forEachRun(len(runOpts), func(i int) (err error) {
		outs[i], err = runPrimeTester("fig6 "+names[i], runOpts[i], opts.Scale, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	outE, outB := outs[0], outs[1]

	res.ElasticRows = outE.Rows
	res.BaselineRows = outB.Rows
	pe := outE.Probes[apps.PrimeProbe]
	pb := outB.Probes[apps.PrimeProbe]
	res.Fulfillment = pe.Fulfillment
	res.ElasticP95 = pe.P95
	res.BaselineMean = pb.Mean
	res.BaselineP95 = pb.P95
	res.ElasticTaskHours = outE.TaskHours * scale
	res.BaselineTaskHours = outB.TaskHours * scale
	res.ScaleUps = outE.ScaleUps
	res.ScaleDowns = outE.ScaleDowns
	res.WarmUpMinParallelism = lowLoadMinParallelism(outE.Rows, opts.StepDuration) * opts.Scale

	res.Checks = fig6Checks(res)
	return res, nil
}

// fig6Row is the table row: the elastic and the baseline series.
func fig6Row(env Env) (*Outcome, error) {
	opts := pick(env.Paper, Fig6Quick(), Fig6Paper())
	res, err := RunFig6(opts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		RowsCSV("fig6_elastic.csv", res.ElasticRows, opts.Scale),
		RowsCSV("fig6_baseline.csv", res.BaselineRows, opts.Scale),
	}}, nil
}

// lowLoadMinParallelism returns the lowest tester parallelism observed
// while the job runs at the warm-up rate: during the warm-up step and the
// decrement tail (at compressed step durations the warm-up alone is too
// short for scale-down drains to complete).
func lowLoadMinParallelism(rows []sim.Row, stepDur float64) int {
	minP := -1
	consider := func(r sim.Row) {
		if p := r.Parallelism[apps.PTWorker]; minP < 0 || p < minP {
			minP = p
		}
	}
	for _, r := range rows {
		if r.Time <= stepDur {
			consider(r)
		}
	}
	for i := len(rows) - 2; i < len(rows); i++ {
		if i >= 0 {
			consider(rows[i])
		}
	}
	if minP < 0 {
		return 0
	}
	return minP
}

// fig6Checks compares against the paper's reported shape.
func fig6Checks(res *Fig6Result) CheckList {
	var checks CheckList
	checks.Add("constraint fulfillment",
		"≈91% of adjustment intervals",
		fmt.Sprintf("%.0f%%", res.Fulfillment*100),
		res.Fulfillment >= 0.80 && res.Fulfillment <= 0.99)
	checks.Add("warm-up scale-down",
		"parallelism drops to ≈36 at the warm-up rate (far below the 175-task static provisioning)",
		fmt.Sprintf("%d tasks", res.WarmUpMinParallelism),
		res.WarmUpMinParallelism > 0 && res.WarmUpMinParallelism < 128 && res.WarmUpMinParallelism <= 100)
	checks.Add("elastic p95 near constraint",
		"≈30 ms once scale-ups settle",
		fmt.Sprintf("%.1f ms", res.ElasticP95*1000),
		res.ElasticP95 > 0.010 && res.ElasticP95 < 0.25)
	checks.Add("baseline latency floor",
		"mean ≥348 ms, p95 ≥564 ms",
		fmt.Sprintf("mean=%.0f ms p95=%.0f ms", res.BaselineMean*1000, res.BaselineP95*1000),
		res.BaselineMean >= 0.15 && res.BaselineP95 > res.BaselineMean)
	checks.Add("baseline far above elastic latency",
		"unelastic 16KiB ≫ elastic 20 ms",
		fmt.Sprintf("baseline mean %.0f ms vs elastic p95 %.0f ms", res.BaselineMean*1000, res.ElasticP95*1000),
		res.BaselineMean > 4*res.ElasticP95)
	// The paper reports near-equality. Our substrate's gate-level batch
	// shipping makes consumer arrivals burstier than the paper's
	// channel-level shipping, so the fitted model holds utilization lower
	// and the elastic run costs somewhat more; the shape statement that
	// survives the substitution is same-order cost at far lower latency
	// (see EXPERIMENTS.md).
	checks.Add("task-hour parity",
		"elastic ≈ manually tuned baseline (same order)",
		fmt.Sprintf("elastic=%.1f baseline=%.1f", res.ElasticTaskHours, res.BaselineTaskHours),
		ratioWithin(res.ElasticTaskHours, res.BaselineTaskHours, 0.55, 1.85))
	checks.Add("corrective scale-downs present",
		"overscaling corrected by subsequent scale-downs",
		fmt.Sprintf("ups=%d downs=%d", res.ScaleUps, res.ScaleDowns),
		res.ScaleUps >= 2 && res.ScaleDowns >= 2)
	return checks
}

// TaskHoursOptions parameterizes the Section V-A constraint sweep.
type TaskHoursOptions struct {
	Fig6Options
	// Bounds are the constraint values to sweep (paper: 20, 30, 40, 50,
	// 100 ms → 46.4/44.3/41.8/37.6 task-hours for the last four).
	Bounds []time.Duration
	// Seeds are averaged per bound to damp the noise of individual
	// scale-up spikes (the paper averages full-length 60 s-step runs).
	Seeds []int64
}

// TaskHoursQuick returns the laptop-scale sweep.
func TaskHoursQuick() TaskHoursOptions {
	return TaskHoursOptions{
		Fig6Options: Fig6Quick(),
		Bounds: []time.Duration{
			20 * time.Millisecond,
			30 * time.Millisecond,
			40 * time.Millisecond,
			50 * time.Millisecond,
			100 * time.Millisecond,
		},
		Seeds: []int64{1, 2, 3},
	}
}

// TaskHoursResult holds the sweep outcome.
type TaskHoursResult struct {
	Options TaskHoursOptions
	// TaskHours[i] corresponds to Bounds[i], at paper scale.
	TaskHours []float64
	// Fulfillment[i] is the constraint fulfillment of each run.
	Fulfillment []float64
	Checks      CheckList
}

// RunTaskHours executes the constraint sweep.
func RunTaskHours(opts TaskHoursOptions) (*TaskHoursResult, error) {
	if len(opts.Bounds) == 0 {
		opts = TaskHoursQuick()
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = TaskHoursQuick().Seeds
	}
	res := &TaskHoursResult{Options: opts}
	scale := float64(opts.Scale)

	// Flatten the bounds×seeds grid into one index space and fan it
	// across the worker pool; every run writes only its own slot, so the
	// per-bound averages below see the same values in any schedule.
	type runOut struct {
		hours   float64
		fulfill float64
	}
	grid := make([]runOut, len(opts.Bounds)*len(opts.Seeds))
	err := forEachRun(len(grid), func(i int) error {
		bound := opts.Bounds[i/len(opts.Seeds)]
		seed := opts.Seeds[i%len(opts.Seeds)]
		out, err := runPrimeTester(fmt.Sprintf("taskhours %v", bound),
			apps.PaperPrimeTester(64, opts.IncrementSteps, opts.StepDuration, seed).ElasticWithin(bound), opts.Scale, nil)
		if err != nil {
			return err
		}
		grid[i] = runOut{
			hours:   out.TaskHours * scale,
			fulfill: out.Probes[apps.PrimeProbe].Fulfillment,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi := range opts.Bounds {
		var hours, fulfill float64
		for si := range opts.Seeds {
			o := grid[bi*len(opts.Seeds)+si]
			hours += o.hours
			fulfill += o.fulfill
		}
		n := float64(len(opts.Seeds))
		res.TaskHours = append(res.TaskHours, hours/n)
		res.Fulfillment = append(res.Fulfillment, fulfill/n)
	}

	var checks CheckList
	// Higher bounds must consume fewer task hours (the paper's
	// 46.4/44.3/41.8/37.6 progression). At compressed scale the per-bound
	// differences are close to the noise of individual scale-up spikes,
	// so the check is on the regression slope of task-hours over the
	// bound index rather than strict step-wise monotonicity.
	n := float64(len(res.TaskHours))
	var mean, slope float64
	for _, h := range res.TaskHours {
		mean += h
	}
	mean /= n
	for i, h := range res.TaskHours {
		slope += (float64(i) - (n-1)/2) * (h - mean)
	}
	checks.Add("task hours decrease with looser constraints",
		"30/40/50/100 ms → 46.4/44.3/41.8/37.6 task-hours (decreasing)",
		fmt.Sprintf("%v (slope %.2f)", formatHours(res.TaskHours), slope), slope < 0)
	// At compressed scale the absolute spread shrinks into run-to-run
	// noise (the paper's 60 s steps at full scale show ≈1.23×); assert
	// the sign with a noise allowance and leave the magnitude to the
	// -paper run.
	spread := res.TaskHours[0] / res.TaskHours[len(res.TaskHours)-1]
	checks.Add("sweep spread",
		"20 ms costs ≈20–30% more than 100 ms (quick scale: ≥ parity)",
		fmt.Sprintf("ratio %.2f", spread),
		spread > 0.95 && spread < 2.0)
	res.Checks = checks
	return res, nil
}

// taskHoursRow is the table row: one CSV line per bound.
func taskHoursRow(env Env) (*Outcome, error) {
	opts := TaskHoursQuick()
	opts.Fig6Options = pick(env.Paper, Fig6Quick(), Fig6Paper())
	res, err := RunTaskHours(opts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		printedCSV("taskhours.csv", "", func(w io.Writer) {
			fmt.Fprintln(w, "bound_ms,task_hours,fulfillment")
			for i, b := range res.Options.Bounds {
				fmt.Fprintf(w, "%d,%.2f,%.3f\n", b.Milliseconds(), res.TaskHours[i], res.Fulfillment[i])
			}
		}),
	}}, nil
}

// formatHours renders task-hour vectors compactly.
func formatHours(hs []float64) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = fmt.Sprintf("%.1f", h)
	}
	return out
}
