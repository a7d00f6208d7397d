// Command twittersentiment runs the TwitterSentiment job (Section V-B)
// on the virtual-time cluster simulator: a synthetic two-week tweet trace
// replayed in 100 minutes against the Figure 7 topology with two latency
// constraints and reactive elastic scaling.
//
// Usage:
//
//	twittersentiment [-scale N] [-duration S] [-csv FILE] [-seed N]
//	                 [-guarantee at-most-once|at-least-once|exactly-once]
//	                 [-ckpt.interval S]
package main

import (
	"flag"
	"fmt"
	"os"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
	"nephelix/internal/experiments"
	"nephelix/internal/model"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

func main() {
	scale := flag.Int("scale", 4, "divide trace rates and parallelism by this factor")
	duration := flag.Float64("duration", 0, "truncate the 6000 s trace (0 = full)")
	csvPath := flag.String("csv", "", "write the time series to this CSV file")
	tracePath := flag.String("trace", "", "replay a recorded JSONL tweet trace (see cmd/tracegen)")
	speedup := flag.Float64("speedup", 1, "replay speed multiplier for -trace")
	seed := flag.Int64("seed", 1, "random seed")
	obsAddr := flag.String("obs.addr", "", "serve introspection endpoints (/healthz, /metrics, /timeseries, /slo, /dataplane, /dash, /debug/pprof, /scaler/decisions) on this address")
	decisionsPath := flag.String("decisions", "", "write the scaler's decision audit trail to this JSONL file")
	timeseriesPath := flag.String("timeseries", "", "write the telemetry time series and residual stats to this JSON file")
	quantile := flag.Float64("constraint.quantile", 0, "percentile constraints: bound this latency quantile instead of the mean, e.g. 0.99 for p99 (0 = paper's mean semantics)")
	guarantee := flag.String("guarantee", "at-most-once", "processing guarantee: at-most-once | at-least-once | exactly-once")
	ckptInterval := flag.Float64("ckpt.interval", 1, "checkpoint interval in virtual seconds (guaranteed runs)")
	flag.Parse()

	g, err := ckpt.ParseGuarantee(*guarantee)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twittersentiment:", err)
		os.Exit(1)
	}
	out := experiments.JobOutputs{ObsAddr: *obsAddr, CSV: *csvPath, Decisions: *decisionsPath, Timeseries: *timeseriesPath}
	if err := run(*scale, *duration, *tracePath, *speedup, *seed, out, g, *ckptInterval, *quantile); err != nil {
		fmt.Fprintln(os.Stderr, "twittersentiment:", err)
		os.Exit(1)
	}
}

func run(scale int, duration float64, tracePath string, speedup float64, seed int64, out experiments.JobOutputs, guarantee ckpt.Guarantee, ckptInterval, quantile float64) error {
	opts := apps.DefaultTwitterSentimentOptions()
	opts.Seed = seed
	opts.Guarantee = guarantee
	opts.CheckpointInterval = ckptInterval
	opts.ConstraintQuantile = quantile
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		tweets, err := workload.ReadTweetTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		replay, err := workload.NewTweetReplay(tweets, speedup)
		if err != nil {
			return err
		}
		opts.Replay = replay
		scale = 1 // the trace already carries its own rates
	}
	cfg, probes, err := apps.BuildTwitterSentiment(apps.ScaleTwitterSentimentOptions(opts, scale))
	if err != nil {
		return err
	}
	if duration > 0 {
		cfg.Duration = duration
	}

	var banner string
	if opts.Replay != nil {
		peak, at := opts.Replay.PeakRate()
		banner = fmt.Sprintf("TwitterSentiment replaying %d tweets over %.0f s (peak ≈%.0f tweets/s at %d s)...",
			opts.Replay.Len(), opts.Replay.Duration(), peak, at)
	} else {
		banner = fmt.Sprintf("TwitterSentiment at 1/%d scale (trace %.0f s, peak ≈%.0f tweets/s)...",
			scale, cfg.Duration, 6734.0/float64(scale))
	}
	return experiments.RunJob(cfg, probes, scale, out, banner, func(res *sim.Result) {
		hot := res.Probes[apps.HotTopicsProbe]
		sent := res.Probes[apps.SentimentProbe]
		fmt.Printf("\nconstraint 1 (hot topics, 215 ms): met %.0f%% of %d intervals; mean %.0f ms, p95 %.0f ms\n",
			hot.Fulfillment*100, hot.Intervals, hot.Mean*1000, hot.P95*1000)
		fmt.Printf("constraint 2 (sentiment, 30 ms):   met %.0f%% of %d intervals; mean %.1f ms, p95 %.1f ms\n",
			sent.Fulfillment*100, sent.Intervals, sent.Mean*1000, sent.P95*1000)
		if quantile > 0 {
			fmt.Printf("percentile fulfillment (%s): hot topics %.0f%%, sentiment %.0f%%\n",
				model.QuantileLabel(quantile), hot.TailFulfillment*100, sent.TailFulfillment*100)
		}
		fmt.Printf("tweets emitted: %d; mean task CPU utilization %.1f%%\n",
			res.Emitted[apps.TSSource]*int64(scale), res.MeanCPUUtilization*100)
		fmt.Printf("scale-ups %d, scale-downs %d; peak parallelism HT=%d F=%d S=%d\n",
			res.ScaleUps, res.ScaleDowns,
			res.PeakParallelism[apps.TSHotTopics]*scale,
			res.PeakParallelism[apps.TSFilter]*scale,
			res.PeakParallelism[apps.TSSentiment]*scale)
		fmt.Printf("task-hours (paper scale): %.1f\n", res.TaskHours*float64(scale))
		if guarantee.Enabled() {
			fmt.Printf("guarantee %s: %d checkpoints committed (%d aborted), %d offsets committed, %d replayed\n",
				guarantee, res.CheckpointsCommitted, res.CheckpointsAborted, res.CommittedOffsets, res.ReplayedItems)
		}
	})
}
