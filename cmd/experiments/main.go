// Command experiments regenerates the paper's evaluation: every measured
// figure and table (Figure 3, Figure 5, Figure 6, the Section V-A
// task-hours sweep, Figure 8) plus the fault-injection recovery run,
// the processing-guarantee sweep, the tail-latency observability run
// (quantile-sketch validation, p99 attribution, SLO error budgets) and
// the tail-aware scaling run (percentile vs mean constraints on the
// bursty tweet trace), writing CSV time series and printing the shape
// checks against the paper's reported results.
//
// Usage:
//
//	experiments [-out DIR] [-paper] [-guarantee MODE] [-ckpt.interval S]
//	            [fig3|fig5|fig6|taskhours|fig8|faults|guarantees|tails|tailscaler|dataplane|all]
//
// Without -paper the quick (laptop-scale) variants run; -paper uses the
// full 130-node topology and 60 s steps (minutes of wall-clock time).
// -guarantee (at-most-once | at-least-once | exactly-once) and
// -ckpt.interval apply to the faults experiment; the guarantees
// subcommand sweeps all modes and intervals regardless.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/experiments"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// recorder and telemetry are the process-wide observability plane: the
// faults experiment records its scaling decisions and time series here,
// and -obs.addr exposes them live.
var (
	recorder  = obs.NewRecorder(0)
	telemetry = obs.NewTelemetry(0)
	tracer    = obs.NewTracer(64)
)

func main() {
	out := flag.String("out", "results", "directory for CSV output")
	paper := flag.Bool("paper", false, "run at full paper scale (slow)")
	guarantee := flag.String("guarantee", "at-most-once", "processing guarantee for the faults experiment: at-most-once | at-least-once | exactly-once")
	ckptInterval := flag.Float64("ckpt.interval", 1, "checkpoint interval in virtual seconds (guaranteed faults run)")
	obsAddr := flag.String("obs.addr", "", "serve introspection endpoints (/healthz, /metrics, /timeseries, /slo, /dataplane, /dash, /debug/pprof, /scaler/decisions) on this address")
	obsLinger := flag.Duration("obs.linger", 0, "keep the introspection server alive this long after the experiments finish (for scraping a completed run)")
	flag.Parse()

	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, obs.ServerConfig{Recorder: recorder, Telemetry: telemetry, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("introspection on http://%s\n", *obsAddr)
	}
	g, err := ckpt.ParseGuarantee(*guarantee)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if err := run(*out, *paper, which, g, *ckptInterval); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *obsAddr != "" && *obsLinger > 0 {
		fmt.Printf("lingering %s for scrapes of http://%s\n", *obsLinger, *obsAddr)
		time.Sleep(*obsLinger)
	}
}

func run(outDir string, paper bool, which string, guarantee ckpt.Guarantee, ckptInterval float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	table := []struct {
		name string
		run  func() (int, error)
	}{
		{"fig3", func() (int, error) { return runFig3(outDir, paper) }},
		{"fig5", func() (int, error) { return runFig5(outDir) }},
		{"fig6", func() (int, error) { return runFig6(outDir, paper) }},
		{"taskhours", func() (int, error) { return runTaskHours(outDir, paper) }},
		{"fig8", func() (int, error) { return runFig8(outDir, paper) }},
		{"faults", func() (int, error) { return runFaults(outDir, paper, guarantee, ckptInterval) }},
		{"guarantees", func() (int, error) { return runGuarantees(outDir, paper) }},
		{"tails", func() (int, error) { return runTails(outDir, paper) }},
		{"tailscaler", func() (int, error) { return runTailScaler(outDir) }},
		{"dataplane", func() (int, error) { return runDataplane(outDir) }},
	}
	failures, known := 0, which == "all"
	for _, e := range table {
		if which != "all" && which != e.name {
			continue
		}
		known = true
		n, err := e.run()
		if err != nil {
			return err
		}
		failures += n
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want fig3|fig5|fig6|taskhours|fig8|faults|guarantees|tails|tailscaler|dataplane|all)", which)
	}
	if failures > 0 {
		return fmt.Errorf("%d shape check(s) failed", failures)
	}
	fmt.Println("\nall shape checks passed")
	return nil
}

func writeCSV(path string, rows []sim.Row, scale float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteRowsCSV(f, rows, scale); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (%d rows)\n", path, len(rows))
	return nil
}

func report(name string, checks experiments.CheckList, elapsed time.Duration) int {
	fmt.Printf("\n=== %s (%s) ===\n%s", name, elapsed.Round(time.Millisecond), checks)
	return len(checks.Failed())
}

func runFig3(outDir string, paper bool) (int, error) {
	opts := experiments.Fig3Quick()
	if paper {
		opts = experiments.Fig3Paper()
	}
	start := time.Now()
	res, err := experiments.RunFig3(opts)
	if err != nil {
		return 0, err
	}
	n := report("Figure 3: batching trade-off under static provisioning", res.Checks, time.Since(start))
	for name, c := range res.Configs {
		path := filepath.Join(outDir, "fig3_"+string(name)+".csv")
		if err := writeCSV(path, c.Rows, float64(opts.Scale)); err != nil {
			return n, err
		}
	}
	return n, nil
}

func runFig5(outDir string) (int, error) {
	start := time.Now()
	res, err := experiments.RunFig5(experiments.Fig5Quick())
	if err != nil {
		return 0, err
	}
	n := report("Figure 5: Rebalance solution-candidate surface", res.Checks, time.Since(start))
	path := filepath.Join(outDir, "fig5_surface.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	fmt.Fprintln(f, "p1,p2,p3_min,total")
	for _, pt := range res.Points {
		fmt.Fprintf(f, "%d,%d,%d,%d\n", pt.P1, pt.P2, pt.P3, pt.Total)
	}
	fmt.Printf("  wrote %s (%d cells; optimum F=%d at %d cells)\n",
		path, len(res.Points), res.OptimumTotal, res.OptimaCount)
	return n, nil
}

func runFig6(outDir string, paper bool) (int, error) {
	opts := experiments.Fig6Quick()
	if paper {
		opts = experiments.Fig6Paper()
	}
	start := time.Now()
	res, err := experiments.RunFig6(opts)
	if err != nil {
		return 0, err
	}
	n := report("Figure 6: elastic vs unelastic PrimeTester", res.Checks, time.Since(start))
	if err := writeCSV(filepath.Join(outDir, "fig6_elastic.csv"), res.ElasticRows, float64(opts.Scale)); err != nil {
		return n, err
	}
	if err := writeCSV(filepath.Join(outDir, "fig6_baseline.csv"), res.BaselineRows, float64(opts.Scale)); err != nil {
		return n, err
	}
	return n, nil
}

func runTaskHours(outDir string, paper bool) (int, error) {
	opts := experiments.TaskHoursQuick()
	if paper {
		opts.Fig6Options = experiments.Fig6Paper()
	}
	start := time.Now()
	res, err := experiments.RunTaskHours(opts)
	if err != nil {
		return 0, err
	}
	n := report("Section V-A: task-hours vs latency constraint", res.Checks, time.Since(start))
	path := filepath.Join(outDir, "taskhours.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	fmt.Fprintln(f, "bound_ms,task_hours,fulfillment")
	for i, b := range res.Options.Bounds {
		fmt.Fprintf(f, "%s,%s,%s\n",
			strconv.FormatFloat(float64(b.Milliseconds()), 'f', -1, 64),
			strconv.FormatFloat(res.TaskHours[i], 'f', 2, 64),
			strconv.FormatFloat(res.Fulfillment[i], 'f', 3, 64))
	}
	fmt.Printf("  wrote %s\n", path)
	return n, nil
}

func runFaults(outDir string, paper bool, guarantee ckpt.Guarantee, ckptInterval float64) (int, error) {
	opts := experiments.FaultsQuick()
	if paper {
		opts = experiments.FaultsPaper()
	}
	opts.Guarantee = guarantee
	opts.CheckpointInterval = ckptInterval
	opts.Recorder = recorder
	opts.Telemetry = telemetry
	opts.Tracer = tracer
	start := time.Now()
	res, err := experiments.RunFaults(opts)
	if err != nil {
		return 0, err
	}
	n := report("Fault injection: tester-task kill mid-plateau, elastic recovery", res.Checks, time.Since(start))
	if err := writeCSV(filepath.Join(outDir, "faults.csv"), res.Rows, float64(opts.Scale)); err != nil {
		return n, err
	}
	if err := experiments.WriteDecisions(filepath.Join(outDir, "faults_decisions.jsonl"), recorder, "  "); err != nil {
		return n, err
	}
	return n, experiments.WriteTimeseries(filepath.Join(outDir, "faults_timeseries.json"), telemetry, "  ")
}

func runGuarantees(outDir string, paper bool) (int, error) {
	opts := experiments.GuaranteesQuick()
	if paper {
		opts = experiments.GuaranteesPaper()
	}
	opts.Telemetry = telemetry
	start := time.Now()
	res, err := experiments.RunFaultsGuarantees(opts)
	if err != nil {
		return 0, err
	}
	n := report("Processing guarantees: mode sweep under mid-plateau kill", res.Checks, time.Since(start))
	path := filepath.Join(outDir, "guarantees.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	fmt.Fprintln(f, "mode,ckpt_interval_s,emitted,delivered,distinct,lost,holes,replayed,dup_detected,dup_delivered,ckpt_committed,ckpt_aborted,recovery_intervals,recovery_window_s,fulfillment")
	scale := int64(opts.Scale)
	for _, r := range res.Runs {
		fmt.Fprintf(f, "%s,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.3f\n",
			r.Mode, r.CheckpointInterval,
			r.Emitted*scale, r.Delivered*scale, r.Distinct*scale, r.Lost*scale,
			r.Holes*scale, r.Replayed*scale, r.DupDetected*scale, r.DupDelivered*scale,
			r.CheckpointsCommitted, r.CheckpointsAborted,
			r.RecoveryIntervals, r.RecoveryWindow, r.Fulfillment)
	}
	fmt.Printf("  wrote %s (%d runs, kill at t=%.0fs)\n", path, len(res.Runs), res.KillTime)

	return n, experiments.WriteTimeseries(filepath.Join(outDir, "guarantees_timeseries.json"), telemetry, "  ")
}

func runTails(outDir string, paper bool) (int, error) {
	opts := experiments.TailsQuick()
	if paper {
		opts = experiments.TailsPaper()
	}
	opts.Recorder = recorder
	opts.Telemetry = telemetry
	start := time.Now()
	res, err := experiments.RunTails(opts)
	if err != nil {
		return 0, err
	}
	n := report("Tails: sketch validation, p99 attribution, SLO budgets", res.Checks, time.Since(start))
	fmt.Print(res.Attribution)
	for _, st := range res.SLO {
		fmt.Printf("  SLO %s: p%g ≤ %.0f ms, budget remaining %.2f, burn %.2f, violations %d\n",
			st.Constraint, st.Quantile*100, st.BoundSeconds*1000,
			st.ErrorBudgetRemaining, st.BurnRate, st.Violations)
	}

	path := filepath.Join(outDir, "tails.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	if err := res.WriteTailsCSV(f); err != nil {
		return n, err
	}
	fmt.Printf("  wrote %s (%d hops)\n", path, len(res.Attribution.Hops))

	return n, experiments.WriteTimeseries(filepath.Join(outDir, "tails_timeseries.json"), telemetry, "  ")
}

func runTailScaler(outDir string) (int, error) {
	opts := experiments.TailScalerQuick()
	opts.Recorder = recorder
	opts.Telemetry = telemetry
	start := time.Now()
	res, err := experiments.RunTailScaler(opts)
	if err != nil {
		return 0, err
	}
	n := report("Tail scaler: percentile vs mean constraints on the bursty trace", res.Checks, time.Since(start))
	fmt.Printf("  %s fulfillment gap on %s: %+.0f points; task-hour premium %.2f×\n",
		model.QuantileLabel(opts.Quantile), res.GapProbe, res.Gap*100, res.TaskHourRatio)
	fmt.Printf("  steady-trace tail model: mean |rel err| %.2f over %d predicted-vs-measured pairs\n",
		res.Steady.TailRelErr, res.Steady.TailRelErrSamples)

	path := filepath.Join(outDir, "tailscaler.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	if err := res.WriteTailScalerCSV(f); err != nil {
		return n, err
	}
	fmt.Printf("  wrote %s (3 variants)\n", path)

	return n, experiments.WriteTimeseries(filepath.Join(outDir, "tailscaler_timeseries.json"), res.Tail.Telemetry, "  ")
}

func runDataplane(outDir string) (int, error) {
	opts := experiments.DataplaneQuick()
	opts.Recorder = recorder
	opts.Telemetry = telemetry
	start := time.Now()
	res, err := experiments.RunDataplane(opts)
	if err != nil {
		return 0, err
	}
	n := report("Data plane: backpressure attribution on a consumer bottleneck", res.Checks, time.Since(start))

	path := filepath.Join(outDir, "dataplane.csv")
	f, err := os.Create(path)
	if err != nil {
		return n, err
	}
	defer f.Close()
	fmt.Fprintln(f, "edge,state,culprit,onsets,idle,producer_limited,consumer_limited,ring_saturated")
	for _, st := range res.Statuses {
		fmt.Fprintf(f, "%s,%s,%s,%d,%d,%d,%d,%d\n",
			st.Edge, st.State, st.Culprit, st.Onsets,
			st.Intervals[string(obs.BackpressureIdle)],
			st.Intervals[string(obs.BackpressureProducerLimited)],
			st.Intervals[string(obs.BackpressureConsumerLimited)],
			st.Intervals[string(obs.BackpressureRingSaturated)])
	}
	fmt.Printf("  wrote %s (%d edges)\n", path, len(res.Statuses))

	return n, experiments.WriteTimeseries(filepath.Join(outDir, "dataplane_timeseries.json"), telemetry, "  ")
}

func runFig8(outDir string, paper bool) (int, error) {
	opts := experiments.Fig8Quick()
	if paper {
		opts = experiments.Fig8Paper()
	}
	start := time.Now()
	res, err := experiments.RunFig8(opts)
	if err != nil {
		return 0, err
	}
	n := report("Figure 8: TwitterSentiment under reactive scaling", res.Checks, time.Since(start))
	if err := writeCSV(filepath.Join(outDir, "fig8.csv"), res.Rows, float64(opts.Scale)); err != nil {
		return n, err
	}
	return n, nil
}
