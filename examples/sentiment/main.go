// Sentiment: the paper's TwitterSentiment job (Section V-B) at laptop
// scale on the live engine. The operators, graph and constraints are the
// ones the simulator runs (internal/apps); here the tweets carry text,
// which the Sentiment vertex scores with the lexicon classifier.
//
// Topology (Figure 7):
//
//	TweetSource ─e1→ Filter ─e2→ Sentiment ─e3→ Sink
//	     └──e4→ HotTopics ─e5→ HotTopicsMerger ─e6 (broadcast)→ Filter
//
// Two latency constraints are enforced: 400 ms on the hot-topics path
// (window-dominated) and 60 ms on the filter→sentiment path. The elastic
// scaler adjusts HotTopics, Filter and Sentiment as the synthetic
// diurnal tweet rate moves.
//
// Run with:
//
//	go run ./examples/sentiment
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/engine"
	"nephelix/internal/workload"
)

func main() {
	opts := apps.DefaultTwitterSentimentOptions()
	opts.Sources, opts.InitialHT, opts.InitialFilter, opts.InitialSentiment, opts.MaxElastic = 1, 1, 1, 1, 6
	opts.Topics, opts.HotK, opts.SampleProbability = 60, 5, 0.3
	opts.Bound1, opts.Bound2 = 400*time.Millisecond, 60*time.Millisecond
	opts.Schedule = &workload.DiurnalSchedule{BaseRate: 60, DailyAmplitude: 240, CycleLength: 6, Length: 15, NoiseAmplitude: 0.1, Seed: 7,
		Bursts: []workload.Burst{{Start: 7, Length: 3, ExtraRate: 250, Topic: 3}}}
	spec, probes, err := apps.TwitterSentimentSpec(opts)
	check(err)
	exec, err := engine.New(engine.Config{Elastic: true, MeasurementInterval: 200 * time.Millisecond, AdjustmentInterval: time.Second}).Submit(spec, probes)
	check(err)
	hot, sent := probes.Probe(apps.HotTopicsProbe), probes.Probe(apps.SentimentProbe)
	fmt.Println("replaying synthetic tweet trace (≈15 s, burst on #topic003 mid-run)...")
	for start := time.Now(); !exec.Done(); time.Sleep(2 * time.Second) {
		fmt.Printf("  t=%-4s HT=%d F=%d S=%d  hot-path=%.0f ms  sentiment-path=%.1f ms\n", time.Since(start).Round(time.Second),
			exec.Parallelism(apps.TSHotTopics), exec.Parallelism(apps.TSFilter), exec.Parallelism(apps.TSSentiment),
			hot.TotalMean()*1000, sent.TotalMean()*1000)
	}
	check(exec.Wait(context.Background()))
	f1, n1 := hot.Fulfillment()
	f2, n2 := sent.Fulfillment()
	ups, downs := exec.ScaleEvents()
	fmt.Printf("\nconstraint 1 (hot topics, %v): met %.0f%% of %d intervals, mean %.0f ms\n", opts.Bound1, f1*100, n1, hot.TotalMean()*1000)
	fmt.Printf("constraint 2 (sentiment, %v):  met %.0f%% of %d intervals, mean %.1f ms\n", opts.Bound2, f2*100, n2, sent.TotalMean()*1000)
	fmt.Printf("%d tweets emitted, %d scored tweets sampled; scale-ups %d, scale-downs %d\n", exec.Emitted(), sent.TotalCount(), ups, downs)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentiment:", err)
		os.Exit(1)
	}
}
