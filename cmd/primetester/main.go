// Command primetester runs the PrimeTester job (Sections III-A and V-A)
// on the virtual-time cluster simulator in any of the paper's four
// configurations, optionally with reactive elastic scaling, and writes
// the time series as CSV.
//
// Usage:
//
//	primetester [-config storm|if|16kib|20ms] [-elastic] [-scale N]
//	            [-steps N] [-stepdur S] [-bound MS] [-csv FILE] [-seed N]
//	            [-guarantee at-most-once|at-least-once|exactly-once]
//	            [-ckpt.interval S]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
	"nephelix/internal/experiments"
	"nephelix/internal/model"
	"nephelix/internal/sim"
)

func main() {
	config := flag.String("config", "20ms", "batching configuration: storm | if | 16kib | 20ms")
	elastic := flag.Bool("elastic", false, "enable the reactive elastic scaler (testers 1..520)")
	scale := flag.Int("scale", 8, "divide the paper topology and rates by this factor")
	steps := flag.Int("steps", 4, "number of increment steps (peak = (steps+1)·10⁴ items/s)")
	stepdur := flag.Float64("stepdur", 20, "step duration in seconds (paper: 60)")
	bound := flag.Int("bound", 20, "latency constraint in milliseconds (for the 20ms config)")
	quantile := flag.Float64("constraint.quantile", 0, "percentile constraint: bound this latency quantile instead of the mean, e.g. 0.99 for p99 (0 = paper's mean semantics)")
	csvPath := flag.String("csv", "", "write the time series to this CSV file")
	seed := flag.Int64("seed", 1, "random seed")
	guarantee := flag.String("guarantee", "at-most-once", "processing guarantee: at-most-once | at-least-once | exactly-once")
	ckptInterval := flag.Float64("ckpt.interval", 1, "checkpoint interval in virtual seconds (guaranteed runs)")
	obsAddr := flag.String("obs.addr", "", "serve introspection endpoints (/healthz, /metrics, /timeseries, /slo, /dataplane, /dash, /debug/pprof, /scaler/decisions) on this address")
	decisionsPath := flag.String("decisions", "", "write the scaler's decision audit trail to this JSONL file")
	timeseriesPath := flag.String("timeseries", "", "write the telemetry time series and residual stats to this JSON file")
	flag.Parse()

	g, err := ckpt.ParseGuarantee(*guarantee)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primetester:", err)
		os.Exit(1)
	}
	out := experiments.JobOutputs{ObsAddr: *obsAddr, CSV: *csvPath, Decisions: *decisionsPath, Timeseries: *timeseriesPath}
	if err := run(*config, *elastic, *scale, *steps, *stepdur, *bound, *quantile, *seed, out, g, *ckptInterval); err != nil {
		fmt.Fprintln(os.Stderr, "primetester:", err)
		os.Exit(1)
	}
}

func run(config string, elastic bool, scale, steps int, stepdur float64, boundMS int, quantile float64, seed int64, out experiments.JobOutputs, guarantee ckpt.Guarantee, ckptInterval float64) error {
	var mode sim.BatchMode
	var bound time.Duration
	switch config {
	case "storm", "if":
		mode = sim.BatchInstant
	case "16kib":
		mode = sim.BatchFixedBuffer
	case "20ms":
		mode = sim.BatchAdaptive
		bound = time.Duration(boundMS) * time.Millisecond
	default:
		return fmt.Errorf("unknown config %q (want storm|if|16kib|20ms)", config)
	}

	base := apps.PaperPrimeTester(128, steps, stepdur, seed)
	if elastic {
		base = base.ElasticWithin(bound)
	}
	base.Mode, base.ConstraintBound, base.ConstraintQuantile = mode, bound, quantile
	base.Guarantee, base.CheckpointInterval = guarantee, ckptInterval
	cfg, probes, err := apps.BuildPrimeTester(apps.ScalePrimeTesterOptions(base, scale))
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("PrimeTester %s at 1/%d scale, elastic=%v, %d+2 steps of %.0fs",
		config, scale, elastic, 2*steps, stepdur)
	return experiments.RunJob(cfg, probes, scale, out, banner, func(res *sim.Result) {
		summary := res.Probes[apps.PrimeProbe]
		fmt.Printf("\nmean latency %.1f ms, p95 %.1f ms over %d samples\n",
			summary.Mean*1000, summary.P95*1000, summary.Count)
		if bound > 0 {
			fmt.Printf("constraint %v met in %.0f%% of %d adjustment intervals\n",
				bound, summary.Fulfillment*100, summary.Intervals)
			if quantile > 0 {
				fmt.Printf("percentile fulfillment (%s): %.0f%%; run-wide p99 %.1f ms\n",
					model.QuantileLabel(quantile), summary.TailFulfillment*100, summary.P99*1000)
			}
		}
		fmt.Printf("emitted %d items; task-hours (paper scale) %.1f\n",
			res.Emitted[apps.PTSource]*int64(scale), res.TaskHours*float64(scale))
		if elastic {
			fmt.Printf("scale-ups %d, scale-downs %d, peak testers %d\n",
				res.ScaleUps, res.ScaleDowns, res.PeakParallelism[apps.PTWorker]*scale)
		}
		if guarantee.Enabled() {
			fmt.Printf("guarantee %s: %d checkpoints committed (%d aborted), %d offsets committed, %d replayed\n",
				guarantee, res.CheckpointsCommitted, res.CheckpointsAborted, res.CommittedOffsets, res.ReplayedItems)
			fmt.Printf("sinks: %d distinct, %d duplicates detected, %d holes\n",
				res.SinkDistinct, res.SinkDuplicates, res.SinkHoles)
		}
	})
}
