package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// GuaranteesOptions parameterizes the processing-guarantee sweep: the
// fault-injection scenario (elastic PrimeTester, a fraction of its
// tester tasks killed mid-plateau, supervised respawn) repeated under
// each guarantee mode and a range of checkpoint intervals. The sweep
// quantifies the guarantee ladder end to end — at-most-once loses the
// killed records, at-least-once replays them all (zero lost), and
// exactly-once additionally suppresses the replay duplicates at the
// sinks — and measures the latency-constraint violation window during
// recovery against the checkpoint interval.
type GuaranteesOptions struct {
	// Scale divides task counts and rates (reported values scaled back).
	Scale int
	// StepDuration is the phase-step length in seconds.
	StepDuration float64
	// KillFraction is the fraction of PrimeTester tasks killed at the
	// middle of the plateau (default 0.10).
	KillFraction float64
	// RestartDelay is the supervised-respawn latency in virtual seconds
	// (default 1).
	RestartDelay float64
	// Intervals are the checkpoint intervals (virtual seconds) swept for
	// the at-least-once and exactly-once runs (default 0.5, 1, 2).
	Intervals []float64
	// RecoveryBudget is the number of adjustment intervals after the
	// kill within which a fulfilled interval must occur (default 6).
	RecoveryBudget int
	Seed           int64
	// Telemetry, when set, receives the time series of the at-least-once
	// run at the first interval (the CI chaos job's recovery-window
	// artifact).
	Telemetry *obs.Telemetry
}

// GuaranteesQuick returns the laptop-scale configuration.
func GuaranteesQuick() GuaranteesOptions {
	return GuaranteesOptions{
		Scale: 8, StepDuration: 20, KillFraction: 0.10, RestartDelay: 1,
		Intervals: []float64{0.5, 1, 2}, RecoveryBudget: 6, Seed: 1,
	}
}

// GuaranteesPaper returns the paper-scale configuration.
func GuaranteesPaper() GuaranteesOptions {
	opts := GuaranteesQuick()
	opts.Scale = 1
	opts.StepDuration = 60
	return opts
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
	Options GuaranteesOptions
	// KillTime is when the tasks died (mid-plateau, virtual seconds).
	KillTime float64
	Runs     []GuaranteeRun
	Checks   CheckList
}

// countingBehavior wraps a sink behavior and counts its Process
// invocations, so suppressed duplicates are observable from outside.
type countingBehavior struct {
	inner sim.Behavior
	n     *int64
}

func (b countingBehavior) ServiceTime(rng *rand.Rand, it *sim.Item) float64 {
	return b.inner.ServiceTime(rng, it)
}

func (b countingBehavior) Process(ctx *sim.TaskContext, it *sim.Item) {
	*b.n++
	b.inner.Process(ctx, it)
}

// RunFaultsGuarantees executes the guarantee-mode sweep.
func RunFaultsGuarantees(opts GuaranteesOptions) (*GuaranteesResult, error) {
	if opts.Scale <= 0 {
		opts.Scale = 8
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = 20
	}
	if opts.KillFraction <= 0 || opts.KillFraction > 1 {
		opts.KillFraction = 0.10
	}
	if opts.RestartDelay <= 0 {
		opts.RestartDelay = 1
	}
	if len(opts.Intervals) == 0 {
		opts.Intervals = []float64{0.5, 1, 2}
	}
	if opts.RecoveryBudget <= 0 {
		opts.RecoveryBudget = 6
	}
	res := &GuaranteesResult{Options: opts}

	// One at-most-once baseline, then each guaranteed mode at each
	// checkpoint interval.
	cells := []GuaranteeRun{{Mode: ckpt.AtMostOnce}}
	for _, mode := range []ckpt.Guarantee{ckpt.AtLeastOnce, ckpt.ExactlyOnce} {
		for _, iv := range opts.Intervals {
			cells = append(cells, GuaranteeRun{Mode: mode, CheckpointInterval: iv})
		}
	}
	for _, cell := range cells {
		var telemetry *obs.Telemetry
		if cell.Mode == ckpt.AtLeastOnce && cell.CheckpointInterval == opts.Intervals[0] {
			telemetry = opts.Telemetry
		}
		run, killTime, err := runGuaranteeCell(opts, cell.Mode, cell.CheckpointInterval, telemetry)
		if err != nil {
			return nil, err
		}
		res.KillTime = killTime
		res.Runs = append(res.Runs, *run)
	}

	res.Checks = guaranteesChecks(res)
	return res, nil
}

// runGuaranteeCell executes one faulted elastic run under the given
// mode and interval.
func runGuaranteeCell(opts GuaranteesOptions, mode ckpt.Guarantee, interval float64, telemetry *obs.Telemetry) (*GuaranteeRun, float64, error) {
	schedule := &workload.StepSchedule{
		WarmUpRate:     10000,
		StepDelta:      10000,
		IncrementSteps: 2,
		StepDuration:   opts.StepDuration,
	}
	killTime := (float64(schedule.IncrementSteps) + 1.5) * opts.StepDuration

	elasticOpts := apps.ScalePrimeTesterOptions(apps.PrimeTesterOptions{
		Sources:            32,
		Sinks:              32,
		PrimeTesters:       64,
		MinPT:              1,
		MaxPT:              520,
		Schedule:           schedule,
		Mode:               sim.BatchAdaptive,
		ConstraintBound:    20 * time.Millisecond,
		Elastic:            true,
		WorkerNodes:        130,
		SlotsPerNode:       5,
		Seed:               opts.Seed,
		Guarantee:          mode,
		CheckpointInterval: interval,
	}, opts.Scale)
	cfg, probes, err := apps.BuildPrimeTester(elasticOpts)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: guarantees: %w", err)
	}
	// Every mode gets the supervisor's restart; the guarantee decides
	// whether anything is replayed after it.
	cfg.Faults = &sim.FaultPlan{
		TaskKills: []sim.TaskKill{{
			At:       killTime,
			Vertex:   apps.PTWorker,
			Fraction: opts.KillFraction,
		}},
		Respawn:      true,
		RestartDelay: opts.RestartDelay,
	}
	cfg.Telemetry = telemetry

	// Count sink-behavior invocations to observe duplicate suppression.
	var delivered int64
	inner := cfg.Vertices[apps.PTSink].NewBehavior
	vc := cfg.Vertices[apps.PTSink]
	vc.NewBehavior = func(i int) sim.Behavior {
		return countingBehavior{inner: inner(i), n: &delivered}
	}
	cfg.Vertices[apps.PTSink] = vc

	run := &GuaranteeRun{Mode: mode, CheckpointInterval: interval}
	prime := probes.Probe(apps.PrimeProbe)
	var lastFulfilled, lastIntervals, postKill int
	run.RecoveryIntervals = -1
	run.RecoveryWindow = -1
	cfg.OnAdjust = func(info sim.AdjustmentInfo) {
		frac, n := prime.Fulfillment()
		fulfilled := int(math.Round(frac * float64(n)))
		intervalMet := n > lastIntervals && fulfilled > lastFulfilled
		closedInterval := n > lastIntervals
		lastFulfilled, lastIntervals = fulfilled, n
		if info.Now <= killTime || run.RecoveryIntervals >= 0 {
			return
		}
		if closedInterval {
			if intervalMet {
				run.RecoveryIntervals = postKill
				run.RecoveryWindow = info.Now - killTime
				return
			}
			postKill++
		}
	}

	s, err := sim.New(cfg, probes)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: guarantees: %w", err)
	}
	out, err := s.Run()
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: guarantees: %w", err)
	}

	run.Emitted = out.Emitted[apps.PTSource]
	run.Delivered = delivered
	run.Distinct = out.SinkDistinct
	run.Holes = out.SinkHoles
	run.Replayed = out.ReplayedItems
	run.DupDetected = out.SinkDuplicates
	run.CheckpointsCommitted = out.CheckpointsCommitted
	run.CheckpointsAborted = out.CheckpointsAborted
	run.Fulfillment = out.Probes[apps.PrimeProbe].Fulfillment
	if mode.Enabled() {
		run.Lost = run.Emitted - run.Distinct
		if !mode.Dedup() {
			run.DupDelivered = run.DupDetected
		}
	} else {
		// No offset tracking: the direct kill counter is the loss.
		run.Lost = out.KilledItems
	}
	return run, killTime, nil
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
		if r.RecoveryIntervals < 0 || r.RecoveryIntervals > res.Options.RecoveryBudget {
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
		fmt.Sprintf("a fulfilled adjustment interval within %d intervals of the kill, every run", res.Options.RecoveryBudget),
		fmt.Sprintf("worst %d intervals (%.0fs violation window)", worstIntervals, worstRecovery),
		recoveredOK)
	return checks
}
