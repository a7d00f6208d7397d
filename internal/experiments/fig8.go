package experiments

import (
	"fmt"

	"nephelix/internal/apps"
	"nephelix/internal/sim"
)

// Fig8Options parameterizes the Figure 8 reproduction: the
// TwitterSentiment job with reactive scaling on the synthetic two-week
// trace replayed in 100 minutes.
type Fig8Options struct {
	// Scale divides the trace rates and parallelism-related quantities.
	Scale int
	// Duration optionally truncates the trace (0 = full 6000 s).
	Duration float64
	Seed     int64
}

// Fig8Quick returns a laptop-scale configuration: quarter rates, full
// trace shape.
func Fig8Quick() Fig8Options { return Fig8Options{Scale: 4, Seed: 1} }

// Fig8Paper returns the full-scale configuration.
func Fig8Paper() Fig8Options {
	return Fig8Options{Scale: 1, Seed: 1}
}

// Fig8Result aggregates the run and shape checks.
type Fig8Result struct {
	Options Fig8Options
	Rows    []sim.Row

	// Fulfillment1/2 are the fractions of adjustment intervals meeting
	// constraint (1) ℓ=215 ms (paper ≈93%) and constraint (2) ℓ=30 ms
	// (paper ≈96%).
	Fulfillment1 float64
	Fulfillment2 float64
	// HotPathMean and HotPathP95 describe the hot-topics path latency;
	// the window aggregation dominates it and the p95 "stays close to the
	// constraint" (paper).
	HotPathMean float64
	HotPathP95  float64
	// SentimentP95 is the sentiment path's p95 (paper: ≈25 ms outside
	// bursts).
	SentimentP95 float64
	// PeakRate is the maximum attempted tweet rate (paper scale; the
	// trace peaks at ≈6734 tweets/s around 2400 s).
	PeakRate float64
	PeakTime float64
	// SentimentBurstScaleUp is the Sentiment vertex's parallelism
	// increase from just before the main burst to its in-burst peak
	// (paper: ≈28 new tasks), at paper scale.
	SentimentBurstScaleUp int
	// HTAdjustments counts changes of the HotTopics parallelism (the
	// paper notes HT "is frequently adjusted").
	HTAdjustments int
	// MeanCPUUtilization is the run-wide task CPU utilization (paper:
	// 55.7%, evidence of the deliberate slight over-provisioning).
	MeanCPUUtilization float64

	Checks CheckList
}

// RunFig8 executes the Figure 8 experiment.
func RunFig8(opts Fig8Options) (*Fig8Result, error) {
	orDefault(&opts.Scale, Fig8Quick().Scale)
	appOpts := apps.DefaultTwitterSentimentOptions()
	appOpts.Seed = opts.Seed
	out, err := runTweets("fig8", appOpts, opts.Scale, opts.Duration, nil)
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{Options: opts, Rows: out.Rows}
	hot := out.Probes[apps.HotTopicsProbe]
	sent := out.Probes[apps.SentimentProbe]
	res.Fulfillment1 = hot.Fulfillment
	res.Fulfillment2 = sent.Fulfillment
	res.HotPathMean = hot.Mean
	res.HotPathP95 = hot.P95
	res.SentimentP95 = sent.P95
	res.MeanCPUUtilization = out.MeanCPUUtilization

	scale := float64(opts.Scale)
	burst := appOpts.Schedule.Bursts[0]
	var preBurstS, inBurstPeakS, lastHT int
	for i, r := range out.Rows {
		att := r.Attempted[apps.TSSource] * scale
		if att > res.PeakRate {
			res.PeakRate = att
			res.PeakTime = r.Time
		}
		if r.Time <= burst.Start {
			preBurstS = r.Parallelism[apps.TSSentiment]
		}
		if r.Time > burst.Start && r.Time <= burst.Start+burst.Length+30 {
			if p := r.Parallelism[apps.TSSentiment]; p > inBurstPeakS {
				inBurstPeakS = p
			}
		}
		if ht := r.Parallelism[apps.TSHotTopics]; i == 0 || ht != lastHT {
			if i > 0 {
				res.HTAdjustments++
			}
			lastHT = ht
		}
	}
	if inBurstPeakS > preBurstS {
		res.SentimentBurstScaleUp = (inBurstPeakS - preBurstS) * opts.Scale
	}

	res.Checks = fig8Checks(res)
	return res, nil
}

// fig8Row is the table row: the run's time series.
func fig8Row(env Env) (*Outcome, error) {
	opts := pick(env.Paper, Fig8Quick(), Fig8Paper())
	res, err := RunFig8(opts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{RowsCSV("fig8.csv", res.Rows, opts.Scale)}}, nil
}

// fig8Checks compares the run against the paper's reported shape.
func fig8Checks(res *Fig8Result) CheckList {
	var checks CheckList
	checks.Add("constraint 1 fulfillment",
		"≈93% of adjustment intervals (ℓ=215 ms)",
		fmt.Sprintf("%.0f%%", res.Fulfillment1*100),
		res.Fulfillment1 >= 0.85)
	checks.Add("constraint 2 fulfillment",
		"≈96% of adjustment intervals (ℓ=30 ms)",
		fmt.Sprintf("%.0f%%", res.Fulfillment2*100),
		res.Fulfillment2 >= 0.85)
	checks.Add("hot path window-dominated",
		"fixed window-aggregation latency dominates the sequence",
		fmt.Sprintf("mean %.0f ms", res.HotPathMean*1000),
		res.HotPathMean > 0.090 && res.HotPathMean < 0.215)
	checks.Add("hot path p95 close to bound",
		"95th percentile stays close to the 215 ms constraint",
		fmt.Sprintf("p95 %.0f ms", res.HotPathP95*1000),
		res.HotPathP95 > 0.140 && res.HotPathP95 < 0.300)
	checks.Add("sentiment p95 near bound",
		"≈25 ms outside bursts",
		fmt.Sprintf("%.1f ms", res.SentimentP95*1000),
		res.SentimentP95 > 0.010 && res.SentimentP95 < 0.060)
	checks.Add("trace peak",
		"6734 tweets/s at ≈2400 s",
		fmt.Sprintf("%.0f tweets/s at %.0f s", res.PeakRate, res.PeakTime),
		ratioWithin(res.PeakRate, 6734, 0.8, 1.2) && res.PeakTime > 2200 && res.PeakTime < 2600)
	checks.Add("sentiment burst scale-up",
		"≈28 new Sentiment tasks at the spike",
		fmt.Sprintf("+%d tasks", res.SentimentBurstScaleUp),
		res.SentimentBurstScaleUp >= 8 && res.SentimentBurstScaleUp <= 80)
	checks.Add("hot-topics parallelism frequently adjusted",
		"HT parallelism frequently adjusted to tweet-rate variations",
		fmt.Sprintf("%d adjustments", res.HTAdjustments),
		res.HTAdjustments >= 10)
	// The paper reports 55.7%; at compressed scale the fixed vertices
	// (sources, merger, sinks) cannot shrink proportionally and dilute
	// the mean, so the check asserts the qualitative property: the system
	// runs deliberately below saturation but well above idle.
	checks.Add("slight over-provisioning",
		"mean task CPU utilization 55.7% (below saturation, above idle)",
		fmt.Sprintf("%.1f%%", res.MeanCPUUtilization*100),
		res.MeanCPUUtilization > 0.20 && res.MeanCPUUtilization < 0.80)
	return checks
}
