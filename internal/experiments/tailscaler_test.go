package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nephelix/internal/apps"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// TestTailScalerReproduction runs the tail-aware scaling experiment at
// quick scale and requires every trade-off check to hold — in
// particular the p99-fulfillment gap: the percentile-constrained scaler
// must resolve a tail violation the mean-constrained scaler never
// reacts to.
func TestTailScalerReproduction(t *testing.T) {
	res, err := RunTailScaler(NewEnv(), TailScalerQuick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks.Failed()) != 0 {
		t.Fatalf("tailscaler checks failed:\n%s", res.Checks)
	}
	if res.Gap < 0.05 {
		t.Fatalf("p99 fulfillment gap %+.3f on %s: elastic-tail did not beat elastic-mean", res.Gap, res.GapProbe)
	}
	// The mean and tail runs share trace, seed and scale; only the
	// constraint semantics differ, so a diverging decision history is
	// the tail model at work.
	if res.Tail.TaskHours == res.Mean.TaskHours && res.Tail.ScaleUps == res.Mean.ScaleUps {
		t.Fatal("elastic-tail run is identical to elastic-mean: percentile constraints had no effect")
	}
	if res.Steady.TailRelErrSamples == 0 {
		t.Fatal("no tail predictions were scored against measured percentiles")
	}
	// The cell that carries the constraint: κ is fitted against the same
	// mean e is, so the p99 prediction at Sentiment must not lean one way.
	// The steady run is repeated under a telemetry the test holds; the
	// simulation is deterministic, so it is the same run.
	var steady TailScalerVariant
	tel := obs.NewTelemetry(0)
	if err := (tailScalerRun{name: "elastic-tail-steady", quantile: res.Options.Quantile, steady: true, env: Env{Telemetry: tel}, out: &steady}).run(res.Options); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steady, res.Steady) {
		t.Fatalf("steady run not reproduced:\n%+v\n%+v", steady, res.Steady)
	}
	for _, st := range tel.Residuals().Snapshot() {
		if st.Constraint == "constraint-2" && st.Vertex == apps.TSSentiment &&
			(math.Abs(st.SignBias) >= 0.5 || st.MeanAbsRelErr > 0.22) {
			t.Errorf("steady Sentiment cell: sign bias %+.2f, mean |rel err| %.2f; want |bias| < 0.5 and rel err <= 0.22",
				st.SignBias, st.MeanAbsRelErr)
		}
	}

	var csv strings.Builder
	if err := res.WriteTailScalerCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.Contains(out, "elastic-mean") || !strings.Contains(out, "elastic-tail-steady") {
		t.Fatalf("CSV missing variants:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 1+3*len(tailScalerProbes) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", got, 1+3*len(tailScalerProbes), out)
	}
}

// TestTailScalerPurity: a percentile-constrained run decides the same
// with observability fully off and fully on. The tail fit's windows
// travel in the QoS summary, so telemetry, tracer and flight recorder
// only watch.
func TestTailScalerPurity(t *testing.T) {
	run := func(observed bool) *sim.Result {
		appOpts := apps.DefaultTwitterSentimentOptions()
		appOpts.Seed = 1
		appOpts.ConstraintQuantile = 0.99
		cfg, probes, err := apps.BuildTwitterSentiment(apps.ScaleTwitterSentimentOptions(appOpts, 4))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Duration = 500
		if observed {
			cfg.Telemetry = obs.NewTelemetry(0)
			cfg.Tracer = obs.NewTracer(8)
			cfg.Recorder = obs.NewRecorder(0)
		}
		s, err := sim.New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	off, on := run(false), run(true)
	if off.ScaleUps == 0 {
		t.Fatal("the percentile constraint triggered no scale-up: nothing to compare")
	}
	if off.TaskHours != on.TaskHours || off.ScaleUps != on.ScaleUps || off.ScaleDowns != on.ScaleDowns {
		t.Errorf("observability changed the plan: off %.6f task-hours %d/%d ups/downs, on %.6f task-hours %d/%d",
			off.TaskHours, off.ScaleUps, off.ScaleDowns, on.TaskHours, on.ScaleUps, on.ScaleDowns)
	}
	if !reflect.DeepEqual(off.Probes, on.Probes) {
		t.Errorf("observability changed the measured latencies:\noff %+v\non  %+v", off.Probes, on.Probes)
	}
}
