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
	"nephelix/internal/obs"
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
	if err := run(*scale, *duration, *csvPath, *tracePath, *speedup, *seed, *obsAddr, *decisionsPath, *timeseriesPath, g, *ckptInterval, *quantile); err != nil {
		fmt.Fprintln(os.Stderr, "twittersentiment:", err)
		os.Exit(1)
	}
}

func run(scale int, duration float64, csvPath, tracePath string, speedup float64, seed int64, obsAddr, decisionsPath, timeseriesPath string, guarantee ckpt.Guarantee, ckptInterval, quantile float64) error {
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
	if scale > 1 && opts.Replay == nil {
		f := float64(scale)
		tr := *opts.Schedule
		tr.BaseRate /= f
		tr.DailyAmplitude /= f
		bursts := make([]workload.Burst, len(tr.Bursts))
		copy(bursts, tr.Bursts)
		for i := range bursts {
			bursts[i].ExtraRate /= f
		}
		tr.Bursts = bursts
		opts.Schedule = &tr
		div := func(v int) int {
			if r := v / scale; r > 0 {
				return r
			}
			return 1
		}
		opts.Sources = div(opts.Sources)
		opts.InitialHT = div(opts.InitialHT)
		opts.InitialFilter = div(opts.InitialFilter)
		opts.InitialSentiment = div(opts.InitialSentiment)
		opts.MaxElastic = div(opts.MaxElastic)
		opts.WorkerNodes = div(opts.WorkerNodes)
	}

	cfg, probes, err := apps.BuildTwitterSentiment(opts)
	if err != nil {
		return err
	}
	if duration > 0 {
		cfg.Duration = duration
	}
	recorder := obs.NewRecorder(0)
	telemetry := obs.NewTelemetry(0)
	cfg.Recorder = recorder
	cfg.Telemetry = telemetry
	if obsAddr != "" {
		srv, err := obs.Serve(obsAddr, obs.ServerConfig{Recorder: recorder, Telemetry: telemetry})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection on http://%s\n", obsAddr)
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		return err
	}

	if opts.Replay != nil {
		peak, at := opts.Replay.PeakRate()
		fmt.Printf("TwitterSentiment replaying %d tweets over %.0f s (peak ≈%.0f tweets/s at %d s)...\n",
			opts.Replay.Len(), opts.Replay.Duration(), peak, at)
	} else {
		fmt.Printf("TwitterSentiment at 1/%d scale (trace %.0f s, peak ≈%.0f tweets/s)...\n",
			scale, cfg.Duration, 6734.0/float64(scale))
	}
	res, err := s.Run()
	if err != nil {
		return err
	}

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

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteRowsCSV(f, res.Rows, float64(scale)); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", csvPath, len(res.Rows))
	}
	if decisionsPath != "" {
		if err := experiments.WriteDecisions(decisionsPath, recorder, ""); err != nil {
			return err
		}
	}
	if timeseriesPath != "" {
		if err := experiments.WriteTimeseries(timeseriesPath, telemetry, ""); err != nil {
			return err
		}
	}
	if drift := telemetry.Residuals().DriftFlags(); len(drift) > 0 {
		fmt.Printf("model drift detected in %d constraint/vertex cells:\n", len(drift))
		for _, d := range drift {
			fmt.Printf("  %s/%s: %s (mean |rel err| %.2f, sign bias %+.2f over %d samples)\n",
				d.Constraint, d.Vertex, d.Reason, d.MeanAbsRelErr, d.SignBias, d.Samples)
		}
	}
	return nil
}
