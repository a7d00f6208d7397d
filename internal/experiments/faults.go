package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
	"nephelix/internal/sim"
)

// FaultsOptions parameterizes the fault-injection experiment: the
// elastic PrimeTester of Figure 6 with a fraction of its tester tasks
// killed mid-plateau. The victims' QoS histories go stale (their
// reporters die with them), the coverage-gated scaler must not react to
// the partial summaries with latency-violating scale-downs, and
// constraint fulfillment has to recover within a bounded number of
// adjustment intervals once the scaler restores capacity.
type FaultsOptions struct {
	// Scale divides task counts and rates (reported values scaled back).
	Scale int
	// StepDuration is the phase-step length in seconds.
	StepDuration float64
	Seed         int64
}

// FaultsQuick returns the laptop-scale configuration.
func FaultsQuick() FaultsOptions { return FaultsOptions{Seed: 1}.withDefaults() }

// withDefaults fills unset fields with the quick-scale values.
func (o FaultsOptions) withDefaults() FaultsOptions {
	orDefault(&o.Scale, 8)
	orDefault(&o.StepDuration, 20)
	return o
}

// FaultsPaper returns the paper-scale configuration.
func FaultsPaper() FaultsOptions {
	return FaultsOptions{Scale: 1, StepDuration: 60, Seed: 1}
}

// FaultsResult is the faulted elastic run and its checks.
type FaultsResult struct {
	FaultedRun
	Checks CheckList
}

// RunFaults executes the fault-injection experiment under env's
// guarantee: an enabled one adds supervised respawn (the engine
// supervisor's restart-and-replay — elastic scale-up restores capacity
// but does not replay lost records) and the check that no record covered
// by a committed checkpoint is lost.
func RunFaults(env Env, opts FaultsOptions) (*FaultsResult, error) {
	opts = opts.withDefaults()
	var interval float64
	if env.Guarantee.Enabled() {
		interval = env.CheckpointInterval
	}
	run, err := runFaultedPrimeTester("faults", env, opts, env.Guarantee, interval, env.Guarantee.Enabled())
	if err != nil {
		return nil, err
	}
	res := &FaultsResult{FaultedRun: *run}
	res.Checks = faultsChecks(res)
	return res, nil
}

// faultsRow is the table row: the time series, the scaler's decision
// audit trail and the telemetry store.
func faultsRow(env Env) (*Outcome, error) {
	opts := pick(env.Paper, FaultsQuick(), FaultsPaper())
	res, err := RunFaults(env, opts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		RowsCSV("faults.csv", res.Sim.Rows, opts.Scale),
		DecisionsJSONL("faults_decisions.jsonl", env.Recorder),
		TimeseriesJSON("faults_timeseries.json", env.Telemetry),
	}}, nil
}

// FaultedRun is one run of the faulted elastic PrimeTester: a cell of the
// sweep with the simulation behind it.
type FaultedRun struct {
	GuaranteeRun
	// Sim is the run's raw result, at simulated scale.
	Sim *sim.Result
	// KillTime is when the tasks died (mid-plateau, virtual seconds).
	KillTime float64
	// PreKillParallelism is the tester parallelism of the last summary
	// before the kill (simulated scale).
	PreKillParallelism int
}

// The faulted scenario: a tenth of the tester tasks dies at the middle
// of the plateau, respawned tasks come back after restartDelay virtual
// seconds, and a fulfilled adjustment interval must follow within
// recoveryBudget intervals.
const (
	faultSteps     = 2 // the plateau is step faultSteps+1
	killFraction   = 0.10
	restartDelay   = 1.0
	recoveryBudget = 6
)

// runFaultedPrimeTester executes the elastic PrimeTester of Figure 6 with
// killFraction of its testers killed mid-plateau, under the given
// guarantee mode and checkpoint interval, observed by env's instruments.
// respawn adds the supervisor's restart (and, under a guarantee, replay);
// without it only elastic scale-up restores capacity.
func runFaultedPrimeTester(what string, env Env, opts FaultsOptions, mode ckpt.Guarantee, interval float64, respawn bool) (*FaultedRun, error) {
	run := &FaultedRun{KillTime: (faultSteps + 1.5) * opts.StepDuration}
	run.Mode, run.CheckpointInterval = mode, interval
	run.RecoveryIntervals, run.RecoveryWindow = -1, -1

	ptOpts := apps.PaperPrimeTester(64, faultSteps, opts.StepDuration, opts.Seed).ElasticWithin(20 * time.Millisecond)
	ptOpts.Guarantee, ptOpts.CheckpointInterval = mode, interval
	out, err := runPrimeTester(what, ptOpts, opts.Scale, func(cfg *sim.Config, probes *sim.ProbeSet) {
		cfg.Faults = &sim.FaultPlan{
			TaskKills:    []sim.TaskKill{{At: run.KillTime, Vertex: apps.PTWorker, Fraction: killFraction}},
			Respawn:      respawn,
			RestartDelay: restartDelay,
		}
		env.observe(cfg)

		// Count sink-behavior invocations to observe duplicate suppression.
		vc := cfg.Vertices[apps.PTSink]
		inner := vc.NewBehavior
		vc.NewBehavior = func(i int) sim.Behavior {
			return countingBehavior{inner: inner(i), n: &run.Delivered}
		}
		cfg.Vertices[apps.PTSink] = vc

		// Track per-adjustment-interval fulfillment around the kill via
		// the probe's fulfillment counter deltas.
		prime := probes.Probe(apps.PrimeProbe)
		var lastFulfilled, lastIntervals, postKill int
		cfg.OnAdjust = func(info sim.AdjustmentInfo) {
			frac, n := prime.Fulfillment()
			fulfilled := int(math.Round(frac * float64(n)))
			closedInterval := n > lastIntervals
			intervalMet := closedInterval && fulfilled > lastFulfilled
			lastFulfilled, lastIntervals = fulfilled, n
			if info.Now <= run.KillTime {
				if p, ok := info.Summary.Vertex(apps.PTWorker); ok && p.Parallelism > 0 {
					run.PreKillParallelism = p.Parallelism
				}
				return
			}
			if run.RecoveryIntervals >= 0 || !closedInterval {
				return
			}
			if intervalMet {
				run.RecoveryIntervals = postKill
				run.RecoveryWindow = info.Now - run.KillTime
				return
			}
			postKill++
		}
	})
	if err != nil {
		return nil, err
	}

	run.Sim = out
	run.Emitted = out.Emitted[apps.PTSource]
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
	return run, nil
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

// faultsChecks asserts the recovery shape.
func faultsChecks(res *FaultsResult) CheckList {
	var checks CheckList
	checks.Add("fault fired",
		fmt.Sprintf("%.0f%% of tester tasks killed mid-plateau", killFraction*100),
		fmt.Sprintf("%d tasks killed at t=%.0fs (%d items lost)", res.Sim.KilledTasks, res.KillTime, res.Sim.KilledItems),
		res.Sim.KilledTasks >= 1)
	checks.Add("constraint recovers within bounded intervals",
		fmt.Sprintf("a fulfilled adjustment interval within %d intervals of the kill", recoveryBudget),
		fmt.Sprintf("%d intervals", res.RecoveryIntervals),
		res.RecoveryIntervals >= 0 && res.RecoveryIntervals <= recoveryBudget)
	checks.Add("overall fulfillment despite fault",
		"constraint met in the large majority of intervals",
		fmt.Sprintf("%.0f%%", res.Fulfillment*100),
		res.Fulfillment >= 0.70)
	checks.Add("pipeline keeps delivering",
		"sink throughput positive in every post-kill row",
		deliveredAfterKill(res),
		deliveredAfterKill(res) == "yes")
	if res.Mode.Enabled() {
		checks.Add("no committed record lost",
			fmt.Sprintf("%s: zero holes below committed checkpoint watermarks", res.Mode),
			fmt.Sprintf("%d holes (%d checkpoints committed, %d replayed)",
				res.Holes, res.CheckpointsCommitted, res.Replayed),
			res.Holes == 0 && res.CheckpointsCommitted > 0)
	}
	return checks
}

// deliveredAfterKill reports whether every recorded row after the kill
// shows positive sink throughput ("yes", or the first offending time).
func deliveredAfterKill(res *FaultsResult) string {
	for _, r := range res.Sim.Rows {
		if r.Time <= res.KillTime {
			continue
		}
		if r.Processed[apps.PTSink] <= 0 {
			return fmt.Sprintf("stalled at t=%.0fs", r.Time)
		}
	}
	return "yes"
}
