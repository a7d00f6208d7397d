package experiments

import (
	"fmt"
	"io"

	"nephelix/internal/ckpt"
)

// GuaranteesOptions parameterizes the processing-guarantee sweep: the
// fault-injection scenario of FaultsOptions with supervised respawn,
// repeated under each guarantee mode and a range of checkpoint intervals.
// The sweep quantifies the guarantee ladder end to end — at-most-once
// loses the killed records, at-least-once replays them all (zero lost),
// and exactly-once additionally suppresses the replay duplicates at the
// sinks — and measures the latency-constraint violation window during
// recovery against the checkpoint interval.
type GuaranteesOptions struct {
	FaultsOptions
	// Intervals are the checkpoint intervals (virtual seconds) swept for
	// the at-least-once and exactly-once runs.
	Intervals []float64
}

// GuaranteesQuick returns the laptop-scale configuration.
func GuaranteesQuick() GuaranteesOptions {
	return GuaranteesOptions{FaultsOptions: FaultsQuick(), Intervals: []float64{0.5, 1, 2}}
}

// GuaranteesPaper returns the paper-scale configuration.
func GuaranteesPaper() GuaranteesOptions {
	return GuaranteesOptions{FaultsOptions: FaultsPaper(), Intervals: GuaranteesQuick().Intervals}
}

// GuaranteeRun is one cell of the sweep.
type GuaranteeRun struct {
	Mode ckpt.Guarantee
	// CheckpointInterval is the barrier period in virtual seconds (0 for
	// the at-most-once run, which takes no checkpoints).
	CheckpointInterval float64

	// Emitted counts source emissions; Delivered counts sink-behavior
	// invocations (suppressed duplicates excluded).
	Emitted   int64
	Delivered int64
	// Distinct is the number of unique source offsets that reached a
	// sink; Lost is Emitted-Distinct for guaranteed runs (end-to-end
	// records never delivered) and the direct kill count for
	// at-most-once, which tracks no offsets.
	Distinct int64
	Lost     int64
	// Holes counts offsets below a committed checkpoint watermark that
	// never reached a sink — loss the guarantee claimed to cover.
	Holes int64
	// Replayed / DupDetected / DupDelivered quantify the replay cost:
	// duplicates are detected by the sink dedup in both guaranteed modes
	// but only delivered to the sink behavior under at-least-once.
	Replayed     int64
	DupDetected  int64
	DupDelivered int64

	CheckpointsCommitted int
	CheckpointsAborted   int

	// RecoveryWindow is the virtual time from the kill to the end of the
	// first fulfilled adjustment interval (-1: never recovered);
	// RecoveryIntervals the same in adjustment-interval counts.
	RecoveryWindow    float64
	RecoveryIntervals int
	// Fulfillment is the whole-run constraint fulfillment.
	Fulfillment float64
}

// GuaranteesResult aggregates the sweep.
type GuaranteesResult struct {
	// KillTime is when the tasks died (mid-plateau, virtual seconds).
	KillTime float64
	Runs     []GuaranteeRun
	Checks   CheckList
}

// RunFaultsGuarantees executes the guarantee-mode sweep. env's telemetry
// observes the at-least-once run at the first interval (the CI chaos
// job's recovery-window artifact).
func RunFaultsGuarantees(env Env, opts GuaranteesOptions) (*GuaranteesResult, error) {
	opts.FaultsOptions = opts.FaultsOptions.withDefaults()
	if len(opts.Intervals) == 0 {
		opts.Intervals = GuaranteesQuick().Intervals
	}
	res := &GuaranteesResult{}

	// One at-most-once baseline, then each guaranteed mode at each
	// checkpoint interval.
	cells := []GuaranteeRun{{Mode: ckpt.AtMostOnce}}
	for _, mode := range []ckpt.Guarantee{ckpt.AtLeastOnce, ckpt.ExactlyOnce} {
		for _, iv := range opts.Intervals {
			cells = append(cells, GuaranteeRun{Mode: mode, CheckpointInterval: iv})
		}
	}
	for _, cell := range cells {
		var observed Env
		if cell.Mode == ckpt.AtLeastOnce && cell.CheckpointInterval == opts.Intervals[0] {
			observed.Telemetry = env.Telemetry
		}
		// Every mode gets the supervisor's restart; the guarantee decides
		// whether anything is replayed after it.
		run, err := runFaultedPrimeTester("guarantees", observed, opts.FaultsOptions, cell.Mode, cell.CheckpointInterval, true)
		if err != nil {
			return nil, err
		}
		res.KillTime = run.KillTime
		res.Runs = append(res.Runs, run.GuaranteeRun)
	}

	res.Checks = guaranteesChecks(res)
	return res, nil
}

// guaranteesRow is the table row: one CSV line per cell, counts scaled
// back, plus the observed cell's time series.
func guaranteesRow(env Env) (*Outcome, error) {
	opts := pick(env.Paper, GuaranteesQuick(), GuaranteesPaper())
	res, err := RunFaultsGuarantees(env, opts)
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("%d runs, kill at t=%.0fs", len(res.Runs), res.KillTime)
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		printedCSV("guarantees.csv", note, func(w io.Writer) {
			fmt.Fprintln(w, "mode,ckpt_interval_s,emitted,delivered,distinct,lost,holes,replayed,dup_detected,dup_delivered,ckpt_committed,ckpt_aborted,recovery_intervals,recovery_window_s,fulfillment")
			scale := int64(opts.Scale)
			for _, r := range res.Runs {
				fmt.Fprintf(w, "%s,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.3f\n",
					r.Mode, r.CheckpointInterval,
					r.Emitted*scale, r.Delivered*scale, r.Distinct*scale, r.Lost*scale,
					r.Holes*scale, r.Replayed*scale, r.DupDetected*scale, r.DupDelivered*scale,
					r.CheckpointsCommitted, r.CheckpointsAborted,
					r.RecoveryIntervals, r.RecoveryWindow, r.Fulfillment)
			}
		}),
		TimeseriesJSON("guarantees_timeseries.json", env.Telemetry),
	}}, nil
}

// guaranteesChecks asserts the guarantee ladder.
func guaranteesChecks(res *GuaranteesResult) CheckList {
	var checks CheckList
	var base *GuaranteeRun
	alOK, eoOK, committedOK, recoveredOK := true, true, true, true
	var alLost, eoDelivered int64
	var worstRecovery float64
	worstIntervals := 0
	for i := range res.Runs {
		r := &res.Runs[i]
		if !r.Mode.Enabled() {
			base = r
			continue
		}
		if r.Lost != 0 || r.Holes != 0 {
			alOK = false
			alLost += r.Lost + r.Holes
		}
		if r.Mode.Dedup() {
			if r.Delivered != r.Distinct {
				eoOK = false
			}
			eoDelivered += r.Delivered - r.Distinct
		}
		if r.CheckpointsCommitted == 0 || r.Replayed == 0 {
			committedOK = false
		}
		if r.RecoveryIntervals < 0 || r.RecoveryIntervals > recoveryBudget {
			recoveredOK = false
		}
		if r.RecoveryIntervals > worstIntervals {
			worstIntervals = r.RecoveryIntervals
		}
		if r.RecoveryWindow > worstRecovery {
			worstRecovery = r.RecoveryWindow
		}
	}
	checks.Add("at-most-once loses the killed records",
		"baseline run loses records with no replay",
		fmt.Sprintf("%d lost, %d replayed", base.Lost, base.Replayed),
		base.Lost > 0 && base.Replayed == 0)
	checks.Add("at-least-once and above lose nothing",
		"zero lost records and zero committed holes in every guaranteed run",
		fmt.Sprintf("%d lost across %d runs", alLost, len(res.Runs)-1),
		alOK)
	checks.Add("exactly-once delivers no duplicates",
		"sink behaviors see each record once in every exactly-once run",
		fmt.Sprintf("%d duplicate deliveries", eoDelivered),
		eoOK)
	checks.Add("checkpoints commit and replay fires",
		"every guaranteed run commits checkpoints and replays after the kill",
		fmt.Sprintf("committed and replayed in all runs: %v", committedOK),
		committedOK)
	checks.Add("constraint recovers within bounded intervals",
		fmt.Sprintf("a fulfilled adjustment interval within %d intervals of the kill, every run", recoveryBudget),
		fmt.Sprintf("worst %d intervals (%.0fs violation window)", worstIntervals, worstRecovery),
		recoveredOK)
	return checks
}
