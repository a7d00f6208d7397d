package experiments

import (
	"testing"

	"nephelix/internal/metrics/sketch"
)

// TestTailsSketchAccuracy is the acceptance check for the quantile
// sketches: over a bursty TwitterSentiment run, every probe quantile
// estimated from the mergeable sketch must sit within the declared
// relative-error bound α of the exact nearest-rank percentile of the
// fully captured latency stream, and the SLO/attribution layers must
// produce well-formed state.
func TestTailsSketchAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	opts := TailsQuick()
	opts.Duration = 1100 // covers the 900 s burst, keeps CI fast
	res, err := RunTails(NewEnv(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Checks.Failed() {
		t.Errorf("check failed: %+v", f)
	}
	if res.MaxRelErr > sketch.DefaultAlpha+1e-12 {
		for _, v := range res.Validation {
			t.Logf("%s q=%g exact=%.6f sketch=%.6f rel=%.5f", v.Probe, v.Quantile, v.Exact, v.Sketch, v.RelErr)
		}
		t.Fatalf("sketch max rel err %.5f exceeds α=%g", res.MaxRelErr, sketch.DefaultAlpha)
	}
}
