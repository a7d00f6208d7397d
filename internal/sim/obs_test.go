package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/metrics"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/workload"
)

// elasticObsConfig is the elastic step-load pipeline of
// TestSimElasticScalesUpAndDown with a flight recorder attached.
func elasticObsConfig(t *testing.T, probes *ProbeSet) Config {
	t.Helper()
	sched := &workload.StepSchedule{
		WarmUpRate:     40,
		StepDelta:      160,
		IncrementSteps: 2,
		StepDuration:   60,
	}
	cfg := pipelineConfig(t, probes, sched, false, 4,
		func(int) Behavior { return &testServer{mean: 0.010, exponential: true} })
	cfg.Edges[model.EdgeKey{Source: "src", Target: "server"}] = EdgeConfig{Mode: BatchAdaptive}
	cfg.Edges[model.EdgeKey{Source: "server", Target: "sink"}] = EdgeConfig{Mode: BatchAdaptive}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "c30", Sequence: seq, Bound: 30 * time.Millisecond, Window: 10 * time.Second,
	}}
	probes.SetBound("e2e", 0.030)
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	return cfg
}

// TestObsSimDecisionAudit runs the elastic pipeline with a recorder and
// checks the audit trail's core promise: every parallelism change the
// run performed is traceable to a logged decision event carrying the
// model inputs that justified it.
func TestObsSimDecisionAudit(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := elasticObsConfig(t, probes)
	rec := obs.NewRecorder(0)
	cfg.Recorder = rec
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolExhausted != 0 {
		t.Fatalf("pool exhaustion would decouple desired from actual parallelism: %d", res.PoolExhausted)
	}
	decisions := rec.Decisions()
	if len(decisions) == 0 {
		t.Fatal("elastic run recorded no scaling decisions")
	}

	ups, downs := 0, 0
	lastInterval := 0
	for i, ev := range decisions {
		d := ev.Decision
		if d.Interval <= lastInterval {
			t.Errorf("decision %d: interval %d not increasing past %d", i, d.Interval, lastInterval)
		}
		lastInterval = d.Interval
		if d.Old == nil || d.New == nil {
			t.Fatalf("decision %d: missing parallelism snapshots: %+v", i, d)
		}
		// Chain consistency: this decision was made against the state the
		// previous decision produced (nothing else changes parallelism).
		if i > 0 {
			prev := decisions[i-1].Decision
			if want, ok := prev.New["server"]; ok && d.Old["server"] != want {
				t.Errorf("decision %d: Old[server]=%d but previous decision set %d",
					i, d.Old["server"], want)
			}
		}
		for _, a := range d.Actions {
			if a == "" {
				t.Errorf("decision %d: empty action string", i)
			}
		}
		if d.New["server"] > d.Old["server"] {
			ups++
		} else if d.New["server"] < d.Old["server"] {
			downs++
		}
		// Every applied change must be justified: a Rebalance-path decision
		// carries the fitted Kingman inputs and descent steps.
		if len(d.Actions) > 0 {
			justified := false
			for _, cd := range d.Constraints {
				if cd.Bottleneck || len(cd.Model) > 0 {
					justified = true
					if len(cd.Model) > 0 {
						m := cd.Model[0]
						if m.Lambda <= 0 || m.ServiceMean <= 0 {
							t.Errorf("decision %d: model inputs not populated: %+v", i, m)
						}
					}
				}
			}
			if !justified {
				t.Errorf("decision %d changed parallelism without model inputs or a bottleneck flag: %+v", i, d)
			}
		}
	}
	if ups != res.ScaleUps || downs != res.ScaleDowns {
		t.Errorf("audit trail shows %d ups / %d downs, run performed %d / %d",
			ups, downs, res.ScaleUps, res.ScaleDowns)
	}
	if ups == 0 || downs == 0 {
		t.Errorf("step load should both scale up and down (ups=%d downs=%d)", ups, downs)
	}

	// The exported JSONL must be parseable line by line.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v", lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning JSONL: %v", err)
	}
	if lines != rec.Len() {
		t.Errorf("JSONL has %d lines, recorder holds %d events", lines, rec.Len())
	}
}

// TestObsSimTracingAttribution head-samples a steady M/M/1-style run and
// checks that the traced per-hop decomposition is complete and consistent
// with the untreated ground-truth probe.
func TestObsSimTracingAttribution(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 80, Length: 300}, true, 1,
		func(int) Behavior { return &testServer{mean: 0.010, exponential: true} })
	tr := obs.NewTracer(5)
	cfg.Tracer = tr
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedItems != 0 {
		t.Fatalf("dropped items break span accounting: %d", res.DroppedItems)
	}

	emitted := uint64(res.Emitted["src"])
	if tr.Emissions() != emitted {
		t.Errorf("tracer saw %d emissions, source emitted %d", tr.Emissions(), emitted)
	}
	wantSpans := int64((emitted + 4) / 5)
	if tr.Spans() != wantSpans {
		t.Errorf("spans: got %d, want %d (every 5th of %d)", tr.Spans(), wantSpans, emitted)
	}
	finished, e2e := tr.EndToEnd()
	if finished != tr.Spans() {
		t.Errorf("finished %d of %d spans; all traced items reach the sink here", finished, tr.Spans())
	}

	// Every span records exactly one hop into server and one into sink.
	for _, vertex := range []string{"server", "sink"} {
		if n, svc := tr.VertexAttribution(vertex); n != finished || svc < 0 {
			t.Errorf("vertex %s: %d samples (want %d), service %v", vertex, n, finished, svc)
		}
	}
	nHop, batch, transit, wait, channel := tr.EdgeAttribution("src->server")
	if nHop != finished {
		t.Errorf("edge src->server: %d samples, want %d", nHop, finished)
	}
	if math.Abs(channel-(batch+transit+wait)) > 1e-9 {
		t.Errorf("channel %v != batch %v + transit %v + wait %v", channel, batch, transit, wait)
	}

	// The traced end-to-end mean must agree with the probe's ground truth
	// (the probe sees every record, the tracer every 5th).
	probeMean := res.Probes["e2e"].Mean
	if e2e <= 0 || math.Abs(e2e-probeMean) > 0.25*probeMean {
		t.Errorf("traced e2e mean %v deviates from probe mean %v", e2e, probeMean)
	}

	// And the decomposition must add up: the end-to-end latency is the sum
	// of the per-hop channel and service pieces (within sampling noise).
	_, svcServer := tr.VertexAttribution("server")
	_, svcSink := tr.VertexAttribution("sink")
	_, _, _, _, chanSink := tr.EdgeAttribution("server->sink")
	sum := channel + svcServer + chanSink + svcSink
	if math.Abs(sum-e2e) > 0.15*e2e {
		t.Errorf("hop decomposition sums to %v, e2e mean is %v", sum, e2e)
	}

	rep := tr.AttributionReport(nil)
	for _, want := range []string{"vertex server:", "edge src->server:", "edge server->sink:"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("attribution report missing %q:\n%s", want, rep)
		}
	}
}

// TestObsSimTracingDeterministic: with a fixed seed, head sampling is part
// of the deterministic event order — two runs yield identical attribution.
func TestObsSimTracingDeterministic(t *testing.T) {
	run := func() string {
		probes := probe.NewProbeSet()
		cfg := pipelineConfig(t, probes,
			&workload.ConstantSchedule{RatePerSecond: 100, Length: 60}, true, 2,
			func(int) Behavior { return &testServer{mean: 0.01, exponential: true} })
		tr := obs.NewTracer(7)
		cfg.Tracer = tr
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.AttributionReport(nil)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different attribution reports:\n%s\n---\n%s", a, b)
	}
}

// TestObsSimUntracedRunUnchanged: attaching no tracer/recorder must leave
// results identical to the seed behavior (the zero-overhead contract is
// benchmarked separately; this guards behavioral equivalence).
func TestObsSimUntracedRunUnchanged(t *testing.T) {
	run := func(withObs bool) *Result {
		probes := probe.NewProbeSet()
		cfg := pipelineConfig(t, probes,
			&workload.ConstantSchedule{RatePerSecond: 100, Length: 60}, true, 2,
			func(int) Behavior { return &testServer{mean: 0.01, exponential: true} })
		if withObs {
			cfg.Tracer = obs.NewTracer(10)
			cfg.Recorder = obs.NewRecorder(64)
		}
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.Emitted["src"] != traced.Emitted["src"] {
		t.Errorf("tracing changed emission count: %d vs %d", plain.Emitted["src"], traced.Emitted["src"])
	}
	if plain.Probes["e2e"].Mean != traced.Probes["e2e"].Mean {
		t.Errorf("tracing changed the simulation outcome: %v vs %v",
			plain.Probes["e2e"].Mean, traced.Probes["e2e"].Mean)
	}
}

// TestObsSimResidualTelemetryParity is the end-to-end pin of the
// prediction-residual monitor: it replays the decision JSONL offline —
// reconstructing every registered Kingman prediction W(p*) from the
// audit event's fitted A/B coefficients and parallelism choice, and
// pairing it with the next interval's measured queue wait exactly as
// the monitor does — and requires the recomputed statistics to match
// both the live monitor and the /timeseries HTTP payload.
func TestObsSimResidualTelemetryParity(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := elasticObsConfig(t, probes)
	rec := obs.NewRecorder(0)
	tel := obs.NewTelemetry(0)
	cfg.Recorder = rec
	cfg.Telemetry = tel
	// The e2e latency histogram is fed from head-sampled trace spans.
	cfg.Tracer = obs.NewTracer(10)

	// summaries[i] is the global summary of adjustment interval i+1 —
	// the same object ObserveInterval scored against (MergePartials
	// allocates a fresh summary per tick, so retaining them is safe).
	var summaries []*qos.Summary
	cfg.OnAdjust = func(info AdjustmentInfo) { summaries = append(summaries, info.Summary) }

	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Offline replay from the exported JSONL.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	type cellAcc struct {
		residual, absRel metrics.Welford
		over, under      int64
	}
	cells := make(map[obs.ResidualKey]*cellAcc)
	seq := cfg.Constraints[0].Sequence
	scoredTotal := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Decision == nil {
			continue
		}
		d := ev.Decision
		// Predictions registered at interval k are scored against the
		// summary of interval k+1 (summaries[k], 0-indexed); a decision in
		// the run's final interval is never scored.
		if d.Interval >= len(summaries) {
			continue
		}
		next := summaries[d.Interval]
		for _, cd := range d.Constraints {
			if cd.Skipped || cd.Constraint == "" || len(cd.Model) == 0 {
				continue
			}
			for _, m := range cd.Model {
				p, ok := d.New[m.Vertex]
				if !ok {
					p, ok = cd.Parallelism[m.Vertex]
				}
				if !ok {
					p = m.Current
				}
				// W(p) = A/(p−B), +Inf for p ≤ B (skipped), 0 for A ≤ 0.
				pf := float64(p)
				if pf <= m.B {
					continue
				}
				predicted := 0.0
				if m.A > 0 {
					predicted = m.A / (pf - m.B)
				}
				edge, ok := seq.IngoingEdge(m.Vertex)
				if !ok {
					continue
				}
				es, ok := next.Edge(edge)
				if !ok {
					continue
				}
				measured := es.QueueWait()
				key := obs.ResidualKey{Constraint: cd.Constraint, Vertex: m.Vertex}
				acc := cells[key]
				if acc == nil {
					acc = &cellAcc{}
					cells[key] = acc
				}
				acc.residual.Add(measured - predicted)
				if measured > 0 {
					acc.absRel.Add(math.Abs(measured-predicted) / measured)
				}
				// Mirror the monitor's sign-bias exemptions: residuals
				// inside the deadband and pairings far below the bound
				// carry no drift evidence.
				bound := cfg.Constraints[0].Bound.Seconds()
				deadband := obs.DeadbandFraction
				switch {
				case math.Abs(measured-predicted) < deadband*bound:
				case measured < obs.BiasFloorFraction*bound &&
					predicted < obs.BiasFloorFraction*bound:
				case predicted > measured:
					acc.over++
				case predicted < measured:
					acc.under++
				}
				scoredTotal++
			}
		}
	}
	if scoredTotal < 10 {
		t.Fatalf("offline replay scored only %d pairs; the elastic run must exercise the monitor", scoredTotal)
	}

	// Live monitor vs offline replay: identical pairing, identical order,
	// so the Welford statistics must agree to numerical identity.
	stats := tel.Residuals().Snapshot()
	if len(stats) != len(cells) {
		t.Fatalf("monitor tracks %d cells, offline replay found %d", len(stats), len(cells))
	}
	for _, st := range stats {
		acc := cells[obs.ResidualKey{Constraint: st.Constraint, Vertex: st.Vertex}]
		if acc == nil {
			t.Errorf("cell %s/%s not reproduced offline", st.Constraint, st.Vertex)
			continue
		}
		if st.Samples != acc.residual.Count() || st.Over != acc.over || st.Under != acc.under ||
			st.RelErrSamples != acc.absRel.Count() {
			t.Errorf("cell %s/%s counts: live {samples %d over %d under %d relerr %d}, offline {%d %d %d %d}",
				st.Constraint, st.Vertex, st.Samples, st.Over, st.Under, st.RelErrSamples,
				acc.residual.Count(), acc.over, acc.under, acc.absRel.Count())
		}
		if math.Abs(st.ResidualMean-acc.residual.Mean()) > 1e-12 ||
			math.Abs(st.ResidualStdDev-acc.residual.StdDev()) > 1e-12 ||
			math.Abs(st.MeanAbsRelErr-acc.absRel.Mean()) > 1e-12 {
			t.Errorf("cell %s/%s stats: live {mean %v stddev %v relerr %v}, offline {%v %v %v}",
				st.Constraint, st.Vertex, st.ResidualMean, st.ResidualStdDev, st.MeanAbsRelErr,
				acc.residual.Mean(), acc.residual.StdDev(), acc.absRel.Mean())
		}
	}

	// The /timeseries payload must carry the same residual statistics
	// bit-for-bit (float64 survives the JSON round-trip exactly).
	srv := httptest.NewServer(obs.NewHandler(obs.ServerConfig{Recorder: rec, Telemetry: tel}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.TimeseriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Residuals, stats) {
		t.Errorf("/timeseries residuals diverge from the monitor:\nhttp: %+v\nlive: %+v", snap.Residuals, stats)
	}
	seriesNames := make(map[string]bool)
	for _, sn := range snap.Series {
		seriesNames[sn.Name] = true
	}
	for _, want := range []string{
		"nephelix_e2e_latency_seconds",
		"nephelix_model_residual_mean_seconds",
		"nephelix_model_abs_residual_seconds",
		"nephelix_vertex_parallelism",
		"nephelix_edge_queue_wait_seconds",
		"nephelix_scaler_decisions_total",
	} {
		if !seriesNames[want] {
			t.Errorf("/timeseries missing series %s", want)
		}
	}
	for _, sn := range snap.Series {
		if sn.Name == "nephelix_e2e_latency_seconds" && sn.Count == 0 {
			t.Error("e2e latency histogram recorded no observations")
		}
	}
}
