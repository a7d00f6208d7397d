package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/qos"
)

func TestObsRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordLifecycle(float64(i), KindTaskStart, Lifecycle{Vertex: "v"})
	}
	if got := r.Len(); got != 4 {
		t.Errorf("Len() = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Errorf("Total() = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i)
		if ev.Seq != want {
			t.Errorf("Events()[%d].Seq = %d, want %d (oldest first)", i, ev.Seq, want)
		}
	}
}

func TestObsRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.RecordLifecycle(1, KindTaskStart, Lifecycle{Task: "a"})
	r.RecordLifecycle(2, KindTaskPanic, Lifecycle{Task: "a", Reason: "boom"})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Events() = %v, want seqs [1 2]", seqsOf(evs))
	}
	if evs[1].Lifecycle == nil || evs[1].Lifecycle.Reason != "boom" {
		t.Errorf("lifecycle payload not preserved: %+v", evs[1].Lifecycle)
	}
}

func TestObsRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.RecordDecision(1, &ScalingDecision{})
	r.RecordLifecycle(1, KindTaskStart, Lifecycle{})
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil || r.Decisions() != nil {
		t.Error("nil recorder should report empty state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Errorf("nil recorder WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil recorder wrote %q", buf.String())
	}
	// A non-nil recorder ignores nil decisions.
	rr := NewRecorder(4)
	rr.RecordDecision(1, nil)
	if rr.Total() != 0 {
		t.Error("nil decision should not be recorded")
	}
}

func TestObsRecorderJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.RecordDecision(10.5, &ScalingDecision{
		Interval: 3,
		Old:      map[string]int{"worker": 4},
		New:      map[string]int{"worker": 6},
		Actions:  []string{"worker: 4 -> 6"},
	})
	r.RecordLifecycle(11, KindTaskRestart, Lifecycle{Vertex: "worker", Attempts: 2, BackoffSeconds: 0.5})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var lines []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(lines)+1, err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0].Kind != KindScalingDecision || lines[0].Decision == nil {
		t.Errorf("line 1 = %+v, want scaling_decision with payload", lines[0])
	}
	if lines[0].Decision.New["worker"] != 6 {
		t.Errorf("decision New[worker] = %d, want 6", lines[0].Decision.New["worker"])
	}
	if lines[1].Kind != KindTaskRestart || lines[1].Lifecycle == nil || lines[1].Lifecycle.Attempts != 2 {
		t.Errorf("line 2 = %+v, want task_restart with attempts=2", lines[1])
	}
}

func TestObsRecorderDecisionsFilter(t *testing.T) {
	r := NewRecorder(16)
	r.RecordLifecycle(1, KindTaskStart, Lifecycle{})
	r.RecordDecision(2, &ScalingDecision{Interval: 1})
	r.RecordLifecycle(3, KindTaskPanic, Lifecycle{})
	r.RecordDecision(4, &ScalingDecision{Interval: 2})
	ds := r.Decisions()
	if len(ds) != 2 {
		t.Fatalf("Decisions() returned %d events, want 2", len(ds))
	}
	if ds[0].Decision.Interval != 1 || ds[1].Decision.Interval != 2 {
		t.Errorf("Decisions() intervals = %d,%d, want 1,2", ds[0].Decision.Interval, ds[1].Decision.Interval)
	}
}

func TestObsTracerHeadSampling(t *testing.T) {
	tr := NewTracer(3)
	var sampled []int
	for i := 0; i < 9; i++ {
		if sp := tr.StartSpan(float64(i)); sp != nil {
			sampled = append(sampled, i)
		}
	}
	want := []int{0, 3, 6}
	if len(sampled) != len(want) {
		t.Fatalf("sampled emissions %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled emissions %v, want %v", sampled, want)
		}
	}
	if tr.Emissions() != 9 {
		t.Errorf("Emissions() = %d, want 9", tr.Emissions())
	}
	if tr.Spans() != 3 {
		t.Errorf("Spans() = %d, want 3", tr.Spans())
	}
}

func TestObsTracerDisabled(t *testing.T) {
	var nilTracer *Tracer
	if sp := nilTracer.StartSpan(0); sp != nil {
		t.Error("nil tracer produced a span")
	}
	off := NewTracer(0)
	for i := 0; i < 100; i++ {
		if sp := off.StartSpan(float64(i)); sp != nil {
			t.Fatal("disabled tracer produced a span")
		}
	}
	// All span methods are no-ops on nil.
	var sp *Span
	sp.Hop("v", "a->b", 1, 2, 3, 4)
	sp.Finish(10)
	if n, _ := nilTracer.EndToEnd(); n != 0 {
		t.Error("nil tracer reported finished spans")
	}
}

func TestObsTracerDisabledAllocs(t *testing.T) {
	off := NewTracer(0)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := off.StartSpan(1)
		sp.Hop("v", "a->b", 0, 0, 0, 0)
		sp.Finish(2)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per record, want 0", allocs)
	}
}

func TestObsTracerAttribution(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.StartSpan(0)
	if sp == nil {
		t.Fatal("every-1 tracer did not sample the first emission")
	}
	sp.Hop("filter", "src->filter", 0.010, 0.002, 0.030, 0.005)
	sp.Hop("sink", "filter->sink", 0.001, 0.001, 0.004, 0.002)
	sp.Finish(0.100)

	if n, mean := tr.EndToEnd(); n != 1 || math.Abs(mean-0.100) > 1e-12 {
		t.Errorf("EndToEnd() = (%d, %v), want (1, 0.100)", n, mean)
	}
	if n, svc := tr.VertexAttribution("filter"); n != 1 || math.Abs(svc-0.005) > 1e-12 {
		t.Errorf("VertexAttribution(filter) = (%d, %v), want (1, 0.005)", n, svc)
	}
	n, batch, transit, wait, channel := tr.EdgeAttribution("src->filter")
	if n != 1 || batch != 0.010 || transit != 0.002 || wait != 0.030 {
		t.Errorf("EdgeAttribution(src->filter) = (%d, %v, %v, %v, %v)", n, batch, transit, wait, channel)
	}
	if math.Abs(channel-0.042) > 1e-12 {
		t.Errorf("channel latency = %v, want 0.042 (batch+transit+wait)", channel)
	}
	if n, _ := tr.VertexAttribution("nonexistent"); n != 0 {
		t.Error("unknown vertex should report zero samples")
	}
}

func TestObsAttributionReport(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.StartSpan(0)
	sp.Hop("filter", "src->filter", 0.010, 0, 0.030, 0.005)
	sp.Finish(0.045)

	s := qos.NewSummary()
	s.Vertices["filter"] = qos.VertexStats{ServiceTimeMean: 0.0051}
	s.Edges[model.EdgeKey{Source: "src", Target: "filter"}] = qos.EdgeStats{
		ChannelLatency: 0.041, OutputBatchLatency: 0.0099,
	}

	rep := tr.AttributionReport(s)
	for _, want := range []string{
		"1/1 emissions sampled",
		"vertex filter: n=1 service=0.005000 [qos S=0.005100]",
		"edge src->filter: n=1 channel=0.040000 batch=0.010000 transit=0.000000 wait=0.030000",
		"[qos l=0.041000 obl=0.009900 W=0.031100]",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var nilTracer *Tracer
	if got := nilTracer.AttributionReport(nil); got != "tracing disabled\n" {
		t.Errorf("nil tracer report = %q", got)
	}
}

func TestObsScalingDecisionMapping(t *testing.T) {
	d := &core.Decision{
		Desired: map[string]int{"worker": 8},
		Actions: []model.ScalingAction{{Vertex: "worker", From: 4, To: 8}},
		PerConstraint: []core.ConstraintDecision{{
			Constraint:     &model.Constraint{Name: "c1"},
			QueueWaitLimit: 0.015,
			Coverage:       0.95,
			Parallelism:    map[string]int{"worker": 8},
			Models: []*core.VertexModel{{
				Name: "worker", Current: 4, Min: 1, Max: 64,
				A: math.Inf(1), B: 0.5, E: 1.2,
				Lambda: 120, SMean: 0.004, CA2: 1.1, CS2: 0.9,
			}},
			Steps: []core.RebalanceStep{{
				Vertex: "worker", From: 4, To: 8,
				Steepest: math.Inf(1), RunnerUp: math.NaN(), PDelta: 8, PW: 10,
			}},
		}},
		Holds: []core.Hold{{Vertex: "sink", Reason: "dead-band", Proposed: 3, Kept: 4}},
	}
	current := map[string]int{"worker": 4}
	sd := NewScalingDecision(7, d, current)
	if sd.Interval != 7 {
		t.Errorf("Interval = %d, want 7", sd.Interval)
	}
	if sd.Old["worker"] != 4 || sd.New["worker"] != 8 {
		t.Errorf("Old/New = %v/%v, want worker 4->8", sd.Old, sd.New)
	}
	// The snapshot must be decoupled from the caller's map.
	current["worker"] = 99
	if sd.Old["worker"] != 4 {
		t.Error("Old parallelism aliased the caller's map")
	}
	if len(sd.Actions) != 1 || !strings.Contains(sd.Actions[0], "worker") {
		t.Errorf("Actions = %v", sd.Actions)
	}
	if len(sd.Constraints) != 1 {
		t.Fatalf("got %d constraints, want 1", len(sd.Constraints))
	}
	cd := sd.Constraints[0]
	if cd.Constraint != "c1" || cd.QueueWaitLimit != 0.015 {
		t.Errorf("constraint = %+v", cd)
	}
	if len(cd.Model) != 1 || cd.Model[0].Lambda != 120 || cd.Model[0].Error != 1.2 {
		t.Errorf("model inputs = %+v", cd.Model)
	}
	// Non-finite values must be clamped so the event marshals.
	if cd.Model[0].A != math.MaxFloat64 {
		t.Errorf("A = %v, want clamped +Inf", cd.Model[0].A)
	}
	if cd.Steps[0].Steepest != math.MaxFloat64 || cd.Steps[0].RunnerUp != 0 {
		t.Errorf("steps not clamped: %+v", cd.Steps[0])
	}
	if len(sd.Holds) != 1 || sd.Holds[0].Reason != "dead-band" {
		t.Errorf("Holds = %+v", sd.Holds)
	}
	if _, err := json.Marshal(sd); err != nil {
		t.Errorf("decision does not marshal: %v", err)
	}
	if NewScalingDecision(1, nil, nil) != nil {
		t.Error("nil core decision should map to nil")
	}
}

func TestObsHTTPEndpoints(t *testing.T) {
	r := NewRecorder(16)
	r.RecordDecision(1, &ScalingDecision{Interval: 1, Old: map[string]int{"w": 2}, New: map[string]int{"w": 3}})
	r.RecordDecision(2, &ScalingDecision{Interval: 2, Old: map[string]int{"w": 3}, New: map[string]int{"w": 4}})
	r.RecordLifecycle(3, KindTaskStart, Lifecycle{Vertex: "w"})
	tr := NewTracer(1)
	tr.StartSpan(0).Finish(0.5)

	h := NewHandler(ServerConfig{Recorder: r, Tracer: tr})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	_, metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE nephelix_obs_events_total counter",
		"nephelix_obs_events_total 3",
		"nephelix_obs_events_buffered 3",
		"nephelix_trace_spans_total 1",
		"nephelix_trace_finished_total 1",
		"nephelix_trace_e2e_mean_seconds 0.5",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	_, body := get("/scaler/decisions")
	var all []Event
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("/scaler/decisions is not JSON: %v\n%s", err, body)
	}
	if len(all) != 2 {
		t.Errorf("/scaler/decisions returned %d events, want 2 (lifecycle filtered out)", len(all))
	}

	_, body = get("/scaler/decisions?n=1")
	var one []Event
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("/scaler/decisions?n=1 is not JSON: %v", err)
	}
	if len(one) != 1 || one[0].Decision.Interval != 2 {
		t.Errorf("?n=1 should return the newest decision, got %+v", one)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestObsHTTPEmptyDecisions(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServerConfig{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/scaler/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty decisions endpoint = %q, want []", got)
	}
}

func seqsOf(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}
