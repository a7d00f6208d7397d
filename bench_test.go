package nephelix_test

// One benchmark per measured figure/table of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md and
// micro-benchmarks of the core algorithms. The figure benchmarks execute
// the full experiment (simulated cluster, QoS plane, scaler) per
// iteration and report the headline quantities as custom metrics — the
// shapes themselves are asserted by the tests in internal/experiments.

import (
	"math/rand"
	"testing"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/core"
	"nephelix/internal/experiments"
	"nephelix/internal/model"
	"nephelix/internal/qos"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// BenchmarkFig3PrimeTesterStatic regenerates Figure 3: the PrimeTester
// job under static provisioning across the four batching configurations.
// Paper shape: effective peaks ≈40k (instant flush), ≈52k (+30%, 20 ms
// adaptive), ≈63k (+58%, 16 KiB).
func BenchmarkFig3PrimeTesterStatic(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig3(experiments.Fig3Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	ifPeak := res.Configs[experiments.ConfigNepheleIF].EffectivePeak
	b.ReportMetric(ifPeak, "IF-peak-items/s")
	b.ReportMetric(res.Configs[experiments.Config20ms].EffectivePeak/ifPeak, "20ms-over-IF")
	b.ReportMetric(res.Configs[experiments.Config16KiB].EffectivePeak/ifPeak, "16KiB-over-IF")
	b.ReportMetric(float64(len(res.Checks.Failed())), "failed-checks")
}

// BenchmarkFig5SolutionSurface regenerates Figure 5: the
// solution-candidate surface of the Rebalance optimization for three job
// vertices.
func BenchmarkFig5SolutionSurface(b *testing.B) {
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig5(experiments.Fig5Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OptimumTotal), "optimum-total-parallelism")
	b.ReportMetric(float64(res.OptimaCount), "optima-count")
	b.ReportMetric(float64(len(res.Checks.Failed())), "failed-checks")
}

// BenchmarkFig6PrimeTesterElastic regenerates Figure 6: the elastic
// 20 ms PrimeTester against the manually provisioned unelastic baseline.
// Paper shape: ≈91% fulfillment, warm-up dip to ≈36 tasks, p95 ≈30 ms,
// baseline mean ≥348 ms at comparable task-hours.
func BenchmarkFig6PrimeTesterElastic(b *testing.B) {
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig6(experiments.Fig6Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Fulfillment*100, "fulfillment-%")
	b.ReportMetric(res.ElasticP95*1000, "elastic-p95-ms")
	b.ReportMetric(res.BaselineMean*1000, "baseline-mean-ms")
	b.ReportMetric(res.ElasticTaskHours, "elastic-task-hours")
	b.ReportMetric(res.BaselineTaskHours, "baseline-task-hours")
	b.ReportMetric(float64(len(res.Checks.Failed())), "failed-checks")
}

// BenchmarkTaskHoursVsConstraint regenerates the Section V-A sweep:
// task-hours for ℓ = 20/30/40/50/100 ms (paper: 46.4/44.3/41.8/37.6 for
// the last four, decreasing).
func BenchmarkTaskHoursVsConstraint(b *testing.B) {
	opts := experiments.TaskHoursQuick()
	opts.Seeds = []int64{1} // single seed per iteration; tests average more
	var res *experiments.TaskHoursResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTaskHours(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TaskHours[0], "20ms-task-hours")
	b.ReportMetric(res.TaskHours[len(res.TaskHours)-1], "100ms-task-hours")
	b.ReportMetric(res.TaskHours[0]/res.TaskHours[len(res.TaskHours)-1], "spread")
}

// BenchmarkFig8TwitterSentiment regenerates Figure 8: the
// TwitterSentiment job on the synthetic two-week trace. Paper shape:
// constraint 1 ≈93%, constraint 2 ≈96%, Sentiment scale-up ≈28 tasks at
// the 6734 tweets/s spike, mean CPU utilization 55.7%.
func BenchmarkFig8TwitterSentiment(b *testing.B) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig8(experiments.Fig8Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Fulfillment1*100, "c1-fulfillment-%")
	b.ReportMetric(res.Fulfillment2*100, "c2-fulfillment-%")
	b.ReportMetric(float64(res.SentimentBurstScaleUp), "burst-scaleup-tasks")
	b.ReportMetric(res.MeanCPUUtilization*100, "cpu-utilization-%")
	b.ReportMetric(float64(len(res.Checks.Failed())), "failed-checks")
}

// ablationRun executes a short elastic PrimeTester with the given scaler
// configuration and returns (fulfillment, taskHours, scale actions).
func ablationRun(b *testing.B, mutate func(*core.ScalerConfig)) (fulfillment, taskHours float64, actions int) {
	b.Helper()
	scaler := core.DefaultScalerConfig()
	if mutate != nil {
		mutate(&scaler)
	}
	opts := apps.ScalePrimeTesterOptions(apps.PrimeTesterOptions{
		Sources: 32, Sinks: 32, PrimeTesters: 64, MinPT: 1, MaxPT: 520,
		Schedule: &workload.StepSchedule{
			WarmUpRate: 10000, StepDelta: 10000, IncrementSteps: 3, StepDuration: 15,
		},
		Mode:            sim.BatchAdaptive,
		ConstraintBound: 20 * time.Millisecond,
		Elastic:         true,
		Scaler:          scaler,
		WorkerNodes:     130,
		SlotsPerNode:    5,
		Seed:            1,
	}, 12)
	opts.Scaler = scaler
	cfg, probes, err := apps.BuildPrimeTester(opts)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	p := res.Probes[apps.PrimeProbe]
	return p.Fulfillment, res.TaskHours * 12, res.ScaleUps + res.ScaleDowns
}

// BenchmarkAblationErrorCoefficient compares the error-coefficient fit of
// Equation 4 across three settings: capped (default), uncapped
// (paper-literal) and disabled. The paper argues that without e the model
// may scale down when a scale-up is needed.
func BenchmarkAblationErrorCoefficient(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*core.ScalerConfig)
	}{
		{"capped", nil},
		{"uncapped", func(c *core.ScalerConfig) { c.Strategy.Model.ErrorCoefficientMax = 0 }},
		{"disabled", func(c *core.ScalerConfig) { c.Strategy.Model.UseErrorCoefficient = false }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var f, th float64
			for i := 0; i < b.N; i++ {
				f, th, _ = ablationRun(b, v.mutate)
			}
			b.ReportMetric(f*100, "fulfillment-%")
			b.ReportMetric(th, "task-hours")
		})
	}
}

// BenchmarkAblationInactivityWindow compares the post-scale-up inactivity
// phase (paper: 2 adjustment intervals) against no inactivity.
func BenchmarkAblationInactivityWindow(b *testing.B) {
	for _, intervals := range []int{0, 2, 4} {
		name := map[int]string{0: "none", 2: "paper-2", 4: "long-4"}[intervals]
		b.Run(name, func(b *testing.B) {
			var f, th float64
			var acts int
			for i := 0; i < b.N; i++ {
				f, th, acts = ablationRun(b, func(c *core.ScalerConfig) { c.InactivityIntervals = intervals })
			}
			b.ReportMetric(f*100, "fulfillment-%")
			b.ReportMetric(th, "task-hours")
			b.ReportMetric(float64(acts), "scale-actions")
		})
	}
}

// BenchmarkAblationQueueWaitFraction sweeps the Ŵ share of the latency
// budget (Algorithm 2 line 7; paper fixes 0.2, our default is 0.3).
func BenchmarkAblationQueueWaitFraction(b *testing.B) {
	for _, frac := range []float64{0.2, 0.3, 0.5} {
		name := map[float64]string{0.2: "paper-0.2", 0.3: "default-0.3", 0.5: "loose-0.5"}[frac]
		b.Run(name, func(b *testing.B) {
			var f, th float64
			for i := 0; i < b.N; i++ {
				f, th, _ = ablationRun(b, func(c *core.ScalerConfig) {
					c.Strategy.Batching.QueueWaitFraction = frac
				})
			}
			b.ReportMetric(f*100, "fulfillment-%")
			b.ReportMetric(th, "task-hours")
		})
	}
}

// BenchmarkAblationDeadBand evaluates the scaling-action dead band (our
// implementation of the paper's future-work item "reduce the number of
// scaling actions"): fewer actions at slightly higher resource cost.
func BenchmarkAblationDeadBand(b *testing.B) {
	for _, frac := range []float64{0, 0.15, 0.3} {
		name := map[float64]string{0: "off", 0.15: "band-15%", 0.3: "band-30%"}[frac]
		b.Run(name, func(b *testing.B) {
			var f, th float64
			var acts int
			for i := 0; i < b.N; i++ {
				f, th, acts = ablationRun(b, func(c *core.ScalerConfig) { c.DeadBandFraction = frac })
			}
			b.ReportMetric(f*100, "fulfillment-%")
			b.ReportMetric(th, "task-hours")
			b.ReportMetric(float64(acts), "scale-actions")
		})
	}
}

// BenchmarkAblationRebalanceStepSize compares Algorithm 1's variable step
// size against unit (+1) steps on a deep asymmetric problem — the
// O(n log n · m) complexity discussion of Section IV-D.
func BenchmarkAblationRebalanceStepSize(b *testing.B) {
	sm := &core.SequenceModel{Vertices: []*core.VertexModel{
		{Name: "a", Current: 1, Min: 1, Max: 5000, A: 50, B: 0, E: 1},
		{Name: "b", Current: 1, Min: 1, Max: 8, A: 0.0001, B: 0, E: 1},
		{Name: "c", Current: 1, Min: 1, Max: 8, A: 0.0001, B: 0, E: 1},
	}}
	b.Run("variable", func(b *testing.B) {
		var steps int
		for i := 0; i < b.N; i++ {
			steps, _ = core.RebalanceSteps(sm, 0.050, false)
		}
		b.ReportMetric(float64(steps), "descent-iterations")
	})
	b.Run("unit", func(b *testing.B) {
		var steps int
		for i := 0; i < b.N; i++ {
			steps, _ = core.RebalanceSteps(sm, 0.050, true)
		}
		b.ReportMetric(float64(steps), "descent-iterations")
	})
}

// BenchmarkPredictionQuality scores the latency model's queue-wait
// predictions against subsequent measurements (the paper's future-work
// item "improving the prediction quality of our latency model").
func BenchmarkPredictionQuality(b *testing.B) {
	var res *experiments.PredictionQualityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunPredictionQuality(8, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MedianAbsRelError, "median-rel-error")
	b.ReportMetric(res.WithinFactor2*100, "within-2x-%")
	b.ReportMetric(float64(len(res.Samples)), "predictions")
}

// --- micro-benchmarks of the core algorithms ---

// benchSummary builds a representative summary for scaler benchmarks.
func benchSummary(p int) (*model.JobGraph, []*model.Constraint, *qos.Summary) {
	g := model.NewJobGraph()
	_ = g.AddVertex(model.JobVertex{Name: "src", Parallelism: 8, MinParallelism: 8, MaxParallelism: 8})
	_ = g.AddVertex(model.JobVertex{Name: "work", Parallelism: p, MinParallelism: 1, MaxParallelism: 1024})
	_ = g.AddVertex(model.JobVertex{Name: "sink", Parallelism: 8, MinParallelism: 8, MaxParallelism: 8})
	_ = g.AddEdge("src", "work", model.PatternRoundRobin)
	_ = g.AddEdge("work", "sink", model.PatternRoundRobin)
	seq, _ := model.ParseSequence(g, "src->work", "work", "work->sink")
	cons := []*model.Constraint{{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second}}
	s := qos.NewSummary()
	s.Vertices["work"] = qos.VertexStats{
		TaskLatency: 0.003, ServiceTimeMean: 0.003, ServiceTimeCV: 0.5,
		InterarrivalMean: 0.006, InterarrivalCV: 1.0, Parallelism: p,
	}
	s.Edges[model.EdgeKey{Source: "src", Target: "work"}] = qos.EdgeStats{ChannelLatency: 0.002, OutputBatchLatency: 0.001}
	s.Edges[model.EdgeKey{Source: "work", Target: "sink"}] = qos.EdgeStats{ChannelLatency: 0.001, OutputBatchLatency: 0.0005}
	return g, cons, s
}

// benchSink keeps benchmark results alive against dead-code elimination.
var benchSink float64

// BenchmarkKingmanWait measures the queue-wait formula itself.
func BenchmarkKingmanWait(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += qos.KingmanWait(80, 0.01+float64(i%7)*1e-5, 1.2, 0.8)
	}
	benchSink = s
}

// BenchmarkBatchingControllerUpdate measures one adaptive-batching round.
func BenchmarkBatchingControllerUpdate(b *testing.B) {
	_, cons, s := benchSummary(64)
	c := qos.NewBatchingController(qos.DefaultBatchingPolicy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(s, cons)
	}
}

// BenchmarkMillerRabin measures the probable-primality test used by the
// live PrimeTester workload.
func BenchmarkMillerRabin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nums := make([]uint64, 1024)
	for i := range nums {
		nums[i] = rng.Uint64() | 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.IsProbablePrime(nums[i%len(nums)])
	}
}
