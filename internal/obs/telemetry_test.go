package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs/ts"
	"nephelix/internal/qos"
)

// TestObsExpositionGolden pins the Prometheus text rendering of series
// snapshots end to end: label escaping, histogram _bucket/_sum/_count
// lines with the implicit +Inf bucket, summary quantile lines, a gauge's
// latest point, and HELP/TYPE emitted once per name.
func TestObsExpositionGolden(t *testing.T) {
	series := []ts.SeriesSnapshot{
		{Name: "app_gauge", Help: "A gauge.", Kind: "gauge", Labels: map[string]string{
			"path": `a\b`, "q": "say \"hi\"\nnow"}, Points: []ts.Point{{T: 1, V: 9}, {T: 2, V: 1.5}}},
		{Name: "app_total", Help: "A counter.", Kind: "counter", Total: 3},
		{Name: "app_hist", Help: "A histogram.", Kind: "histogram",
			Labels:  map[string]string{"vertex": "v"},
			Buckets: []ts.Bucket{{LE: 0.01, Count: 1}, {LE: 0.1, Count: 3}},
			Sum:     0.25, Count: 4},
		// Summary: quantile label appended after the escaped base labels.
		{Name: "app_latency", Help: "A summary.", Kind: "sketch",
			Labels:    map[string]string{"path": `t"x`},
			Quantiles: []ts.QuantileValue{{Quantile: 0.5, Value: 0.01}, {Quantile: 0.99, Value: 0.05}},
			Sum:       1.25, Count: 10},
		// Same name, different identity: rendered, but HELP/TYPE are not
		// re-emitted.
		{Name: "app_latency", Help: "A summary.", Kind: "sketch",
			Quantiles: []ts.QuantileValue{{Quantile: 0.999, Value: 0.2}},
			Sum:       0.2, Count: 1},
		// No HELP and no points: TYPE alone, value 0.
		{Name: "app_unset", Kind: "gauge"},
	}
	var b strings.Builder
	ts.WriteExposition(&b, series)
	want := `# HELP app_gauge A gauge.
# TYPE app_gauge gauge
app_gauge{path="a\\b",q="say \"hi\"\nnow"} 1.5
# HELP app_total A counter.
# TYPE app_total counter
app_total 3
# HELP app_hist A histogram.
# TYPE app_hist histogram
app_hist_bucket{vertex="v",le="0.01"} 1
app_hist_bucket{vertex="v",le="0.1"} 3
app_hist_bucket{vertex="v",le="+Inf"} 4
app_hist_sum{vertex="v"} 0.25
app_hist_count{vertex="v"} 4
# HELP app_latency A summary.
# TYPE app_latency summary
app_latency{path="t\"x",quantile="0.5"} 0.01
app_latency{path="t\"x",quantile="0.99"} 0.05
app_latency_sum{path="t\"x"} 1.25
app_latency_count{path="t\"x"} 10
app_latency{quantile="0.999"} 0.2
app_latency_sum 0.2
app_latency_count 1
# TYPE app_unset gauge
app_unset 0
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// telemetryObserve feeds tel two intervals over constraint c so the
// residual monitor registers and then scores one prediction.
func telemetryObserve(t *testing.T, tel *Telemetry, c *model.Constraint) *Telemetry {
	t.Helper()
	d := residualTestDecision(c,
		&core.VertexModel{Name: "server", Current: 4, A: 0.04, B: 2},
		map[string]int{"server": 6}, nil)
	s := summaryWithQueueWait(0.025, 0.010)
	s.Vertices["server"] = qos.VertexStats{
		TaskLatency:      0.012,
		ServiceTimeMean:  0.008,
		InterarrivalMean: 0.010,
		Parallelism:      4,
		FreshTasks:       4,
	}
	tel.ObserveInterval(10, s, d, map[string]int{"server": 4})
	tel.ObserveInterval(20, s, nil, map[string]int{"server": 6})
	return tel
}

// TestObsTimeseriesEndpoint: /timeseries serves the scraped store and
// residual statistics as JSON, honouring the name prefix and point-count
// filters, and degrades to empty (non-null) collections without a
// telemetry plane.
func TestObsTimeseriesEndpoint(t *testing.T) {
	tel := NewTelemetry(64)
	tel.ObserveE2E(0.5, 0.005)
	telemetryObserve(t, tel, residualTestConstraint(t))

	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()

	get := func(rawQuery string) TimeseriesSnapshot {
		t.Helper()
		resp, err := http.Get(srv.URL + "/timeseries" + rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("content type %q", ct)
		}
		var snap TimeseriesSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	full := get("")
	names := make(map[string]bool)
	for _, s := range full.Series {
		names[s.Name] = true
	}
	for _, want := range []string{
		"nephelix_e2e_latency_seconds",
		"nephelix_adjust_intervals_total",
		"nephelix_vertex_parallelism",
		"nephelix_edge_queue_wait_seconds",
		"nephelix_model_residual_mean_seconds",
		"nephelix_go_goroutines",
	} {
		if !names[want] {
			t.Errorf("series %s missing from /timeseries", want)
		}
	}
	if len(full.Residuals) != 1 || full.Residuals[0].Vertex != "server" || full.Residuals[0].Samples != 1 {
		t.Errorf("residuals: %+v", full.Residuals)
	}

	edges := get("?name=" + url.QueryEscape("nephelix_edge_"))
	if len(edges.Series) == 0 {
		t.Fatal("prefix filter returned nothing")
	}
	for _, s := range edges.Series {
		if !strings.HasPrefix(s.Name, "nephelix_edge_") {
			t.Errorf("prefix filter leaked %s", s.Name)
		}
	}

	limited := get("?name=" + url.QueryEscape("nephelix_vertex_parallelism") + "&n=1")
	for _, s := range limited.Series {
		if len(s.Points) > 1 {
			t.Errorf("n=1 must cap points, got %d for %s", len(s.Points), s.Name)
		}
	}

	// No telemetry plane: empty arrays, not null.
	bare := httptest.NewServer(NewHandler(ServerConfig{}))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"series", "residuals"} {
		if string(raw[field]) != "[]" {
			t.Errorf("disabled telemetry %s = %s, want []", field, raw[field])
		}
	}
}

// TestObsMetricsHistogram: the telemetry store's histograms and counters
// surface on /metrics in exposition format.
func TestObsMetricsHistogram(t *testing.T) {
	tel := NewTelemetry(64)
	tel.ObserveE2E(0.5, 0.005)
	telemetryObserve(t, tel, residualTestConstraint(t))

	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# TYPE nephelix_e2e_latency_seconds histogram",
		`nephelix_e2e_latency_seconds_bucket{le="0.005"} 1`,
		`nephelix_e2e_latency_seconds_bucket{le="+Inf"} 1`,
		"nephelix_e2e_latency_seconds_count 1",
		"# TYPE nephelix_adjust_intervals_total counter",
		"nephelix_adjust_intervals_total 2",
		`nephelix_vertex_parallelism{vertex="server"} 6`,
		`nephelix_model_abs_residual_seconds_bucket{constraint="c",vertex="server",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestObsDashPage: /dash serves the self-contained dashboard page.
func TestObsDashPage(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServerConfig{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "EventSource", "/dash/sse"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/dash missing %q", want)
		}
	}
}

// TestObsDashSSE: /dash/sse streams TimeseriesSnapshot frames as
// server-sent events.
func TestObsDashSSE(t *testing.T) {
	tel := NewTelemetry(64)
	telemetryObserve(t, tel, residualTestConstraint(t))
	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dash/sse?interval_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var data string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no SSE data frame received: %v", sc.Err())
	}
	var snap TimeseriesSnapshot
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		t.Fatalf("SSE frame is not a snapshot: %v", err)
	}
	if len(snap.Series) == 0 || len(snap.Residuals) != 1 {
		t.Errorf("SSE snapshot: %d series, %d residuals", len(snap.Series), len(snap.Residuals))
	}
}

// TestObsSSESlowConsumer: a connected SSE client that never reads must
// not block telemetry recording — the blocking socket write happens
// outside the store's locks.
func TestObsSSESlowConsumer(t *testing.T) {
	tel := NewTelemetry(64)
	telemetryObserve(t, tel, residualTestConstraint(t))
	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()

	// Open the SSE stream over a raw connection and never read from it,
	// so the handler's writes eventually fill the socket buffers.
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /dash/sse?interval_ms=100 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := residualTestConstraint(t)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					tel.ObserveE2E(float64(i), 0.001)
				}
			}()
		}
		for i := 0; i < 50; i++ {
			telemetryObserve(t, tel, c)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("telemetry recording blocked behind a stalled SSE consumer")
	}
}
