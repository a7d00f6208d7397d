package master_test

import (
	"fmt"
	"testing"

	"nephelix/internal/core"
	"nephelix/internal/master"
	"nephelix/internal/probe"
)

// TestZeroScalerConfigIsDefault: a loop built with a zero ScalerConfig
// is the loop built with core.DefaultScalerConfig() — the captured
// summaries draw the same deadlines, actions, holds and tail fits from
// both, interval for interval.
func TestZeroScalerConfigIsDefault(t *testing.T) {
	cfg, ivs := capture(t)
	trail := func(sc core.ScalerConfig) []string {
		var out []string
		rt := &replayRuntime{}
		l, err := master.New(cfg.Graph, cfg.Constraints, sc, true, probe.NewProbeSet(), func(iv master.Interval) {
			line := rt.log[len(rt.log)-1] // the round's SetDeadlines, which precedes observers
			if d := iv.Decision; d != nil {
				line += fmt.Sprint(" ", d.Actions, " ", d.Holds, " ", d.TailFit)
			}
			out = append(out, line)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, iv := range ivs {
			rt.iv = iv
			if err := l.StepSummary(rt, iv.Parallelism, iv.Summary); err != nil {
				t.Fatalf("round %d: %v", iv.Round, err)
			}
		}
		return out
	}
	zero, def := trail(core.ScalerConfig{}), trail(core.DefaultScalerConfig())
	if len(zero) != len(ivs) || len(def) != len(ivs) {
		t.Fatalf("observed %d and %d of %d intervals", len(zero), len(def), len(ivs))
	}
	for i := range def {
		if zero[i] != def[i] {
			t.Fatalf("interval %d:\nzero    %s\ndefault %s", i+1, zero[i], def[i])
		}
	}
}
