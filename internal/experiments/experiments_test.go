package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
)

// These tests run every experiment at its quick (laptop) scale and assert
// that all shape checks against the paper hold. They are the
// reproduction's integration tests: QoS plane, latency model, scaler,
// batching controller and simulator all have to cooperate for a check to
// pass.

func requireAllPass(t *testing.T, checks CheckList) {
	t.Helper()
	for _, c := range checks {
		if c.Pass {
			t.Logf("%s", c)
		} else {
			t.Errorf("%s", c)
		}
	}
}

func TestFig3Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunFig3(Fig3Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)

	// Every configuration must have produced a usable series.
	for name, c := range res.Configs {
		if len(c.Rows) < 10 {
			t.Errorf("%s: only %d rows", name, len(c.Rows))
		}
		if c.EffectivePeak <= 0 {
			t.Errorf("%s: no effective peak measured", name)
		}
	}
}

func TestFig5Reproduction(t *testing.T) {
	res, err := RunFig5(Fig5Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if len(res.Points) != res.Options.MaxP*res.Options.MaxP {
		t.Errorf("surface has %d points, want %d", len(res.Points), res.Options.MaxP*res.Options.MaxP)
	}
}

func TestFig6Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunFig6(Fig6Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
}

func TestTaskHoursReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	opts := TaskHoursQuick()
	opts.Seeds = []int64{1, 2} // trimmed for test runtime
	res, err := RunTaskHours(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if len(res.TaskHours) != len(opts.Bounds) {
		t.Errorf("task hours: %d entries for %d bounds", len(res.TaskHours), len(opts.Bounds))
	}
	// Every run must still meet its constraint most of the time.
	for i, f := range res.Fulfillment {
		if f < 0.75 {
			t.Errorf("bound %v: fulfillment %.2f too low", opts.Bounds[i], f)
		}
	}
}

func TestFaultsReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunFaults(Env{}, FaultsQuick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if res.Sim.KilledTasks < 1 {
		t.Errorf("KilledTasks = %d, want >= 1", res.Sim.KilledTasks)
	}
	preKill := 0 // tester parallelism of the last row before the kill
	for _, r := range res.Sim.Rows {
		if r.Time <= res.KillTime {
			preKill = r.Parallelism[apps.PTWorker]
		}
	}
	if preKill <= 0 {
		t.Errorf("tester parallelism before the kill = %d, want > 0", preKill)
	}
}

func TestFig8Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunFig8(Fig8Quick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
}

func TestWriteRowsCSV(t *testing.T) {
	res, err := RunFig6(Fig6Options{Scale: 16, StepDuration: 10, IncrementSteps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, res.ElasticRows, 16); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(res.ElasticRows)+1 {
		t.Fatalf("csv lines: got %d, want %d rows + header", len(lines), len(res.ElasticRows))
	}
	header := lines[0]
	for _, col := range []string{"time_s", "source-to-sink_mean_s", "Source_attempted_per_s", "PrimeTester_parallelism", "cpu_utilization"} {
		if !strings.Contains(header, col) {
			t.Errorf("csv header missing %q: %s", col, header)
		}
	}
	// Empty input is a no-op.
	var empty bytes.Buffer
	if err := WriteRowsCSV(&empty, nil, 1); err != nil || empty.Len() != 0 {
		t.Errorf("empty rows: err=%v len=%d", err, empty.Len())
	}
}

func TestCheckList(t *testing.T) {
	var l CheckList
	l.Add("a", "p", "m", true)
	l.Add("b", "p", "m", false)
	if len(l.Failed()) == 0 {
		t.Error("AllPass with a failing check")
	}
	if len(l.Failed()) != 1 || l.Failed()[0].Name != "b" {
		t.Errorf("Failed: %v", l.Failed())
	}
	s := l.String()
	if !strings.Contains(s, "[PASS] a") || !strings.Contains(s, "[FAIL] b") {
		t.Errorf("render: %s", s)
	}
}

func TestFig3OptionDefaults(t *testing.T) {
	// Zero options fall back to quick-scale defaults rather than failing.
	res, err := RunFig3(Fig3Options{Scale: 50, StepDuration: 5, IncrementSteps: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configs) != 4 {
		t.Errorf("configs: %d, want 4", len(res.Configs))
	}
}

func TestFig5Infeasible(t *testing.T) {
	if _, err := RunFig5(Fig5Options{MaxP: 5, WaitLimit: 1e-9}); err == nil {
		t.Error("fully infeasible surface must error")
	}
}

func TestTaskHoursDefaultBounds(t *testing.T) {
	// Empty bounds fall back to the quick preset; just validate the
	// plumbing with a tiny single-seed sweep.
	opts := TaskHoursOptions{
		Fig6Options: Fig6Options{Scale: 16, StepDuration: 10, IncrementSteps: 2, Seed: 1},
		Bounds:      []time.Duration{20 * time.Millisecond, 100 * time.Millisecond},
		Seeds:       []int64{1},
	}
	res, err := RunTaskHours(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskHours) != 2 {
		t.Fatalf("task hours: %v", res.TaskHours)
	}
}

func TestPredictionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunPredictionQuality(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if len(res.Samples) < 3 {
		t.Errorf("too few scored predictions: %d", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Predicted < 0 || s.Measured < 0 {
			t.Errorf("negative sample: %+v", s)
		}
	}
}

func TestFaultsGuaranteesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	opts := GuaranteesQuick()
	opts.Intervals = []float64{1} // one interval keeps the test fast
	res, err := RunFaultsGuarantees(Env{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if len(res.Runs) != 3 {
		t.Fatalf("got %d runs, want 3 (one per mode)", len(res.Runs))
	}
	for _, r := range res.Runs[1:] {
		if r.Lost != 0 || r.Holes != 0 {
			t.Errorf("%s: lost %d, holes %d, want 0/0", r.Mode, r.Lost, r.Holes)
		}
	}
}

func TestFaultsWithGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	res, err := RunFaults(Env{Guarantee: ckpt.ExactlyOnce, CheckpointInterval: 1}, FaultsQuick())
	if err != nil {
		t.Fatal(err)
	}
	requireAllPass(t, res.Checks)
	if res.Holes != 0 {
		t.Errorf("Holes = %d, want 0", res.Holes)
	}
	if res.Replayed == 0 {
		t.Error("no items replayed despite supervised respawn")
	}
}
