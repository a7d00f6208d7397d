package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"nephelix/internal/engine"
)

// testCase is a scaled-down open-loop case: the benchmark's generator,
// worker and sink on the reference job, at a rate a short test can afford.
var testCase = engineCase{
	name: "test", rate: 50_000, tickRate: 20_000,
	mode: engine.BatchingInstant, limit: 10 * time.Millisecond,
}

// runTestJob runs the test case for length and returns the finished job.
// wrapSink, when set, replaces the sink UDF (it should delegate to the
// job's own sink).
func runTestJob(t *testing.T, length time.Duration, wrapSink func(*sink) engine.UDF) *engineJob {
	t.Helper()
	job, err := buildJob(testCase, 1, time.Now(), 0, length, false)
	if err != nil {
		t.Fatal(err)
	}
	if wrapSink != nil {
		udf := wrapSink(job.sink)
		job.spec.SetUDF("sink", func(int) engine.UDF { return udf })
	}
	cfg := pinnedConfig(1)
	cfg.MeasurementInterval = 20 * time.Millisecond // quick end-of-job quiescence
	exec, err := engine.New(cfg).Submit(job.spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		exec.Stop()
		t.Fatal(err)
	}
	if failed, errs := job.check(exec, false); failed != 0 || len(errs) != 0 {
		t.Fatalf("output checks: %d failed, %v", failed, errs)
	}
	return job
}

// stallingSink sleeps for stall on the first record of every period,
// then hands the record to the real sink.
type stallingSink struct {
	inner  *sink
	period time.Duration
	stall  time.Duration
	slot   time.Duration
}

func (s *stallingSink) Process(ctx *engine.Context, rec engine.Record) {
	if slot := time.Since(s.inner.t0) / s.period; slot != s.slot {
		s.slot = slot
		time.Sleep(s.stall)
	}
	s.inner.Process(ctx, rec)
}

func lateRecords(job *engineJob) (late, n uint64, maxNs int64) {
	for i := range job.sink.windows {
		w := &job.sink.windows[i]
		late += w.n - w.onTime
		n += w.n
		maxNs = max(maxNs, w.maxNs)
	}
	return late, n, maxNs
}

// The generator offers exactly rate × duration records whatever the
// pipeline does, and a sink that stalls is charged to the records that
// waited behind it: measured latency rises, the offered count does not
// fall.
func TestGeneratorIsOpenLoop(t *testing.T) {
	const length = time.Second
	want := uint64(testCase.rate) * uint64(length/time.Second)

	free := runTestJob(t, length, nil)
	if free.gen.seq != want {
		t.Fatalf("free run offered %d records, want %d", free.gen.seq, want)
	}
	freeLate, n, _ := lateRecords(free)
	if n != want {
		t.Fatalf("free run recorded %d latencies, want %d", n, want)
	}

	stalled := runTestJob(t, length, func(s *sink) engine.UDF {
		return &stallingSink{inner: s, period: 250 * time.Millisecond, stall: 50 * time.Millisecond, slot: -1}
	})
	if stalled.gen.seq != want {
		t.Fatalf("stalled run offered %d records, want %d: the stall lowered the offered load", stalled.gen.seq, want)
	}
	late, n, maxNs := lateRecords(stalled)
	if n != want {
		t.Fatalf("stalled run recorded %d latencies, want %d", n, want)
	}
	if maxNs < (40 * time.Millisecond).Nanoseconds() {
		t.Errorf("stalled run's worst latency %v: a 50 ms stall was not charged to any record", time.Duration(maxNs))
	}
	// Each 50 ms stall holds back the ≈2500 records that came due during
	// it; most of them wait longer than the 10 ms limit.
	if late < 4*1000 || late <= freeLate {
		t.Errorf("stalled run: %d records late (free run %d), want at least 4000", late, freeLate)
	}
}

func TestQuantileHelpers(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.5, 5.5}, {1, 10}, {0.25, 3.25}, {0.9, 9.1}} {
		if got := quantile(vals, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if lo, hi := quiet(vals, "lower"), quiet(vals, "higher"); lo != 1 || hi != 10 {
		t.Errorf("quiet = %v / %v, want 1 / 10", lo, hi)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := relSpread(vals); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got := relSpread([]float64{16, 1, 4, 2, 8}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, 10.5/4)
	}
}

func TestRebalanceCheckPasses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if err := checkRebalance(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Every workload and metric name is well-formed, BENCHMARK.json lists
// exactly the catalogue, and the runner prints exactly the catalogue.
func TestCatalogueMatchesManifestAndOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if strings.Join(manifest.Command, " ") != "go run ./bench" || len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", manifest.Command, manifest.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	wellFormed := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalogue %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		wellFormed(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if m := manifest.Workloads[i]; m.Name != w.Name || m.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q", i, m.Name, w.Name)
		}
		_, isEngine := engineCases[w.Name]
		_, isSim := simCases[w.Name]
		if isEngine == isSim {
			t.Errorf("workload %s must be exactly one of engine or simulator case", w.Name)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(manifest.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		wellFormed(d.Name, d.Unit)
		if m := manifest.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalogue %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(manifest.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(manifest.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		wellFormed(d.Name, d.Unit)
		if m := manifest.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalogue %+v", i, m, d)
		}
	}

	// The runner's last line carries exactly the pass's metrics.
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		var buf bytes.Buffer
		r := newResult()
		r.attempted = 7
		if err := report(&buf, "x", defs, r); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var out struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(defs) {
			t.Fatalf("result object incomplete: %s", lines[len(lines)-1])
		}
		for _, d := range defs {
			if m, ok := out.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("result object lacks %s [%s]", d.Name, d.Unit)
			}
			if !strings.Contains(buf.String(), " "+d.Name+" ") {
				t.Errorf("printed table lacks %s", d.Name)
			}
		}
	}
}
