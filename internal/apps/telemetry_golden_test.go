package apps

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/telemetry.* from this run")

// TestTelemetryGolden pins what an operator scrapes: the /metrics
// exposition text and the /timeseries JSON of one seeded TwitterSentiment
// run (p99 constraints, tracing and the flight recorder on) must equal the
// recorded files byte for byte — names, label order, HELP, values. Only
// the Go runtime series (heap, GC, goroutines) are left out. A series is
// added by adding a row to obs/registry.go; -update then changes exactly
// that row's lines.
func TestTelemetryGolden(t *testing.T) {
	opts := quickTSOptions()
	opts.ConstraintQuantile = 0.99
	cfg, probes, err := BuildTwitterSentiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 300 // through the burst at 230 s
	cfg.Telemetry = obs.NewTelemetry(0)
	cfg.Tracer = obs.NewTracer(50)
	cfg.Recorder = obs.NewRecorder(0)
	s, err := sim.New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// A family declared without HELP text would render a bare # TYPE.
	for _, sn := range cfg.Telemetry.Store().Query("", 0, 0) {
		if sn.Help == "" {
			t.Errorf("series %s has no HELP text: give its declaration in obs/registry.go one", sn.Name)
		}
	}
	h := obs.NewHandler(obs.ServerConfig{Recorder: cfg.Recorder, Tracer: cfg.Tracer, Telemetry: cfg.Telemetry})
	get := func(url string) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", url, w.Code)
		}
		return w.Body.Bytes()
	}

	var prom bytes.Buffer
	for _, line := range strings.SplitAfter(string(get("/metrics")), "\n") {
		if !strings.Contains(line, "nephelix_go_") {
			prom.WriteString(line)
		}
	}
	// The newest 4 points per series keep the file small; totals, sums,
	// buckets and quantiles cover the whole run regardless.
	var snap obs.TimeseriesSnapshot
	if err := json.Unmarshal(get("/timeseries?n=4"), &snap); err != nil {
		t.Fatal(err)
	}
	kept := snap.Series[:0]
	for _, sn := range snap.Series {
		if !strings.HasPrefix(sn.Name, "nephelix_go_") {
			kept = append(kept, sn)
		}
	}
	snap.Series = kept
	series, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][]byte{"telemetry.prom": prom.Bytes(), "telemetry.json": series} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs from the golden at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
		}
	}
}
