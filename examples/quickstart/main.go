// Quickstart: a three-stage streaming job on the live engine with a
// latency constraint and reactive elastic scaling.
//
// A source emits short sentences at a rising rate, a tokenizer splits
// them, and a counting sink tracks word frequencies. The job declares a
// 50 ms latency constraint over the whole pipeline; the engine's QoS
// plane batches adaptively and the elastic scaler grows and shrinks the
// tokenizer as the load changes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

var sentences = []string{
	"streams must flow with low latency",
	"constraints bound the mean latency of sequences",
	"elastic scaling follows the offered load",
	"queueing theory predicts the waiting time",
	"batching trades latency for throughput",
}

// tokenizer splits sentences into words and forwards them.
type tokenizer struct{ spin time.Duration }

func (tk *tokenizer) Process(ctx *engine.Context, rec engine.Record) {
	// A small spin models per-sentence UDF work, making the scaling
	// visible at quickstart rates.
	end := time.Now().Add(tk.spin)
	for time.Now().Before(end) {
	}
	for _, w := range strings.Fields(rec.Value.(string)) {
		out := rec
		out.Value = w
		out.Key = hash(w)
		ctx.Emit(0, out)
	}
}

// counter tallies words and records end-to-end latency.
type counter struct {
	mu     *sync.Mutex
	counts map[string]int
	probe  *probe.Probe
}

func (c *counter) Process(_ *engine.Context, rec engine.Record) {
	c.mu.Lock()
	c.counts[rec.Value.(string)]++
	c.mu.Unlock()
	if rec.Sampled {
		c.probe.Record(time.Since(rec.EmitTime).Seconds())
	}
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Job graph: source -> tokenize (elastic 1..6) -> count.
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "source", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "tokenize", Parallelism: 1, MinParallelism: 1, MaxParallelism: 6},
		{Name: "count", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			return err
		}
	}
	if err := g.AddEdge("source", "tokenize", model.PatternRoundRobin); err != nil {
		return err
	}
	if err := g.AddEdge("tokenize", "count", model.PatternKeyBased); err != nil {
		return err
	}

	// 50 ms constraint over the whole pipeline.
	seq, err := model.ParseSequence(g, "source->tokenize", "tokenize", "tokenize->count")
	if err != nil {
		return err
	}
	constraint := &model.Constraint{
		Name:     "pipeline-50ms",
		Sequence: seq,
		Bound:    50 * time.Millisecond,
		Window:   5 * time.Second,
	}

	probes := probe.NewProbeSet()
	pr := probes.Probe("pipeline")
	pr.BoundSeconds = constraint.Bound.Seconds()

	cnt := &counter{mu: &sync.Mutex{}, counts: make(map[string]int), probe: pr}
	// Emit runs on every source task's goroutine at once.
	var emitted atomic.Int64

	// Load: 8 s ramp from 100 to 500 sentences/s and back.
	sched := &workload.StepSchedule{
		WarmUpRate:     100,
		StepDelta:      200,
		IncrementSteps: 2,
		StepDuration:   2,
	}

	spec := engine.NewJobSpec(g).
		SetSource("source", engine.SourceSpec{
			Schedule:          sched,
			SampleProbability: 0.5,
			Emit: func(ctx *engine.Context) {
				n := emitted.Add(1)
				ctx.Emit(0, engine.Record{
					Value:    sentences[n%int64(len(sentences))],
					EmitTime: time.Now(),
					Sampled:  ctx.Sample(),
				})
			},
		}).
		SetUDF("tokenize", func(int) engine.UDF { return &tokenizer{spin: 2 * time.Millisecond} }).
		SetUDF("count", func(int) engine.UDF { return cnt }).
		AddConstraint(constraint)

	eng := engine.New(engine.Config{
		Elastic:             true,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  500 * time.Millisecond,
	})
	exec, err := eng.Submit(spec, probes)
	if err != nil {
		return err
	}

	fmt.Println("running quickstart job (≈8 s)...")
	started := time.Now()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for !exec.Done() {
		<-ticker.C
		fmt.Printf("  t=%-4s tokenize parallelism=%d  mean latency=%.1f ms\n",
			time.Since(started).Round(time.Second),
			exec.Parallelism("tokenize"), pr.TotalMean()*1000)
	}
	if err := exec.Wait(context.Background()); err != nil {
		return err
	}

	fulfilled, intervals := pr.Fulfillment()
	ups, downs := exec.ScaleEvents()
	fmt.Printf("\ndone: %d sentences emitted, %d distinct words\n", emitted.Load(), len(cnt.counts))
	fmt.Printf("constraint %s met in %.0f%% of %d adjustment intervals\n",
		constraint.Bound, fulfilled*100, intervals)
	fmt.Printf("mean latency %.1f ms, p95 %.1f ms; scale-ups=%d scale-downs=%d, task-hours=%.4f\n",
		pr.TotalMean()*1000, pr.TotalP95()*1000, ups, downs, exec.TaskHours())
	top := ""
	best := 0
	cnt.mu.Lock()
	for w, n := range cnt.counts {
		if n > best {
			best, top = n, w
		}
	}
	cnt.mu.Unlock()
	fmt.Printf("most frequent word: %q (%d times)\n", top, best)
	return nil
}
