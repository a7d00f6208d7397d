package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// The paper closes with "for future work we intend to focus on improving
// the prediction quality of our latency model". This experiment
// quantifies that quality: at every adjustment interval the fitted model
// predicts the queue waiting time for the parallelism it just chose; two
// adjustment intervals later (after the inactivity window) the measured
// wait is compared against that prediction.

// PredictionSample is one prediction/outcome pair.
type PredictionSample struct {
	// Seed is the run the pair comes from; At the decision time (seconds).
	Seed int64
	At   float64
	// FromP and ToP are the parallelism before and after the decision.
	FromP, ToP int
	// Predicted is W_model(ToP) at decision time; Measured the wait
	// observed after the change settled.
	Predicted float64
	Measured  float64
}

// PredictionQualityResult summarizes the model's prediction error.
type PredictionQualityResult struct {
	Samples []PredictionSample
	// MedianAbsRelError is the median of |measured−predicted|/measured.
	MedianAbsRelError float64
	// WithinFactor2 is the fraction of predictions within 2× of the
	// measurement (both directions).
	WithinFactor2 float64
	// Residuals are the telemetry residual monitor's per-(constraint,
	// vertex) statistics — the online counterpart of Samples, scored at
	// a one-interval horizon and merged across seeds in the sweep.
	Residuals []obs.ResidualStat
	// Drift lists the cells the monitor currently flags as drifting.
	Drift  []obs.DriftFlag
	Checks CheckList

	// monitor backs Residuals/Drift; the sweep merges per-seed monitors.
	monitor *obs.ResidualMonitor
}

// RunPredictionQuality runs an elastic PrimeTester under a step load and
// scores every scaling decision's wait prediction.
func RunPredictionQuality(scale int, seed int64) (*PredictionQualityResult, error) {
	orDefault(&scale, 8)
	edge := model.EdgeKey{Source: apps.PTSource, Target: apps.PTWorker}
	type pending struct {
		sample PredictionSample
		due    int // adjustment rounds until scoring
	}
	var open []*pending
	res := &PredictionQualityResult{}
	modelOpts := core.DefaultModelOptions()

	var cfg *sim.Config
	onAdjust := func(info sim.AdjustmentInfo) {
		seq := cfg.Constraints[0].Sequence
		// Score matured predictions against the current measurement.
		es, okE := info.Summary.Edge(edge)
		vs, okV := info.Summary.Vertex(apps.PTWorker)
		keep := open[:0]
		for _, p := range open {
			if p.due > 0 {
				p.due--
				keep = append(keep, p)
				continue
			}
			// Score if the parallelism is still (approximately) the one
			// the prediction was made for; the scaler nudges by a task
			// or two between rounds.
			tol := max(1, p.sample.ToP/10)
			if d := vs.Parallelism - p.sample.ToP; okE && okV && max(d, -d) <= tol {
				p.sample.Measured = es.QueueWait()
				res.Samples = append(res.Samples, p.sample)
			}
			// Parallelism moved on (or no data): discard silently.
		}
		open = keep

		// Register a new prediction when the scaler acted.
		if info.Decision == nil || len(info.Decision.Actions) == 0 || !okV {
			return
		}
		for _, a := range info.Decision.Actions {
			if a.Vertex != apps.PTWorker {
				continue
			}
			jv := cfg.Graph.Vertex(apps.PTWorker)
			vm, err := core.BuildVertexModel(jv, seq, info.Summary, modelOpts)
			if err != nil {
				continue
			}
			pred := vm.Wait(a.To)
			if math.IsInf(pred, 1) {
				continue
			}
			open = append(open, &pending{
				sample: PredictionSample{Seed: seed, At: info.Now, FromP: a.From, ToP: a.To, Predicted: pred},
				due:    3, // inactivity window + one settling interval
			})
		}
	}

	// The telemetry residual monitor scores the same predictions online
	// at a one-interval horizon; its per-vertex aggregates land in
	// res.Residuals for drift interpretation.
	tel := obs.NewTelemetry(0)
	_, err := runPrimeTester("prediction",
		apps.PaperPrimeTester(64, 4, 25, seed).ElasticWithin(20*time.Millisecond), scale,
		func(c *sim.Config, _ *sim.ProbeSet) {
			cfg = c
			c.OnAdjust = onAdjust
			c.Telemetry = tel
		})
	if err != nil {
		return nil, err
	}

	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("experiments: no scoreable predictions (no stable scaling actions)")
	}
	res.monitor = tel.Residuals()
	res.Residuals = res.monitor.Snapshot()
	res.Drift = res.monitor.DriftFlags()
	res.score()
	return res, nil
}

// score fills the aggregate error statistics and checks from Samples.
func (res *PredictionQualityResult) score() {
	var relErrs []float64
	within := 0
	for _, sm := range res.Samples {
		if sm.Measured <= 0 {
			continue
		}
		relErrs = append(relErrs, math.Abs(sm.Measured-sm.Predicted)/sm.Measured)
		ratio := sm.Predicted / sm.Measured
		if ratio >= 0.5 && ratio <= 2 {
			within++
		}
	}
	if len(relErrs) > 0 {
		sort.Float64s(relErrs)
		res.MedianAbsRelError = relErrs[len(relErrs)/2]
		res.WithinFactor2 = float64(within) / float64(len(relErrs))
	}

	res.Checks = nil
	res.Checks.Add("predictions carry signal",
		"model is 'a rough predictor' (Section IV-C2)",
		fmt.Sprintf("median |rel err| %.2f over %d predictions", res.MedianAbsRelError, len(res.Samples)),
		res.MedianAbsRelError < 2.0)
	res.Checks.Add("half of predictions within 2x",
		"fit quality sufficient to rank scaling choices",
		fmt.Sprintf("%.0f%% within 2x", res.WithinFactor2*100),
		res.WithinFactor2 >= 0.4)
	if len(res.Residuals) > 0 {
		var scored int64
		for _, rs := range res.Residuals {
			scored += rs.Samples
		}
		res.Checks.Add("residual monitor scored predictions",
			"online W(p*) vs next-interval measured wait pairs accumulated",
			fmt.Sprintf("%d pairs over %d cells, %d drifting", scored, len(res.Residuals), len(res.Drift)),
			scored > 0)
	}
}

// RunPredictionQualitySweep runs RunPredictionQuality for every seed
// (fanned across the worker pool) and scores the pooled samples. Samples
// are concatenated in seed order, so the result is identical for any
// MaxWorkers setting.
func RunPredictionQualitySweep(scale int, seeds []int64) (*PredictionQualityResult, error) {
	perSeed := make([]*PredictionQualityResult, len(seeds))
	err := forEachRun(len(seeds), func(i int) error {
		r, err := RunPredictionQuality(scale, seeds[i])
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		perSeed[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &PredictionQualityResult{monitor: obs.NewResidualMonitor()}
	for _, r := range perSeed {
		res.Samples = append(res.Samples, r.Samples...)
		// Merge in seed order: the Welford merge result is order-
		// dependent, so this keeps the pooled statistics identical for
		// any MaxWorkers setting.
		res.monitor.Merge(r.monitor)
	}
	res.Residuals = res.monitor.Snapshot()
	res.Drift = res.monitor.DriftFlags()
	res.score()
	return res, nil
}

// predictionRow is the table row: seeds 1–3 pooled, one CSV line per
// scored prediction/outcome pair.
func predictionRow(Env) (*Outcome, error) {
	res, err := RunPredictionQualitySweep(8, []int64{1, 2, 3})
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		printedCSV("prediction.csv", fmt.Sprintf("%d pairs", len(res.Samples)), func(w io.Writer) {
			fmt.Fprintln(w, "seed,at_s,from_p,to_p,predicted_wait_s,measured_wait_s")
			for _, sm := range res.Samples {
				fmt.Fprintf(w, "%d,%g,%d,%d,%g,%g\n", sm.Seed, sm.At, sm.FromP, sm.ToP, sm.Predicted, sm.Measured)
			}
		}),
	}}, nil
}
