package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"nephelix/internal/obs/ts"
)

// ServerConfig wires the introspection endpoints to a run's state. All
// fields are optional; absent ones degrade to empty responses.
type ServerConfig struct {
	// Recorder backs /scaler/decisions and the event counters on
	// /metrics.
	Recorder *Recorder
	// Tracer contributes span counters to /metrics.
	Tracer *Tracer
	// Telemetry backs /timeseries and the /dash SSE dashboard, and
	// contributes its store to /metrics.
	Telemetry *Telemetry
}

// NewHandler returns the introspection mux: /healthz, /metrics
// (Prometheus text format), /timeseries (time-series store + residual
// stats as JSON), /dash (live SSE dashboard), /debug/pprof/* and
// /scaler/decisions (recent audit trail as JSON; ?n=K limits to the
// newest K events).
func NewHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// One point per series is all the exposition reads.
		ts.WriteExposition(w, append(builtinMetrics(cfg), cfg.Telemetry.Store().Query("", 0, 1)...))
	})
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		since, _ := strconv.ParseFloat(q.Get("since"), 64)
		maxPoints, _ := strconv.Atoi(q.Get("n"))
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(cfg.Telemetry.Snapshot(q.Get("name"), since, maxPoints))
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(struct {
			Targets []SLOStatus `json:"targets"`
		}{Targets: cfg.Telemetry.SLOSnapshot()})
	})
	mux.HandleFunc("/dataplane", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := cfg.Telemetry.Dataplane()
		if snap == nil {
			// Pre-first-interval (or disabled telemetry): an empty, valid
			// payload rather than null, so scrapers can always decode it.
			snap = &DataplaneSnapshot{Edges: []DataplaneEdge{}, Backpressure: []BackpressureStatus{}}
		}
		_ = json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/dash", serveDashPage)
	mux.HandleFunc("/dash/sse", func(w http.ResponseWriter, r *http.Request) {
		serveDashSSE(w, r, cfg.Telemetry)
	})
	mux.HandleFunc("/scaler/decisions", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil {
				n = v
			}
		}
		events := cfg.Recorder.Decisions()
		if n > 0 && n < len(events) {
			events = events[len(events)-n:]
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if events == nil {
			events = []Event{}
		}
		_ = json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// builtinMetrics renders the recorder's and the tracer's own counters as
// snapshots, ahead of the telemetry store's on /metrics.
func builtinMetrics(cfg ServerConfig) []ts.SeriesSnapshot {
	counter := func(name, help string, v float64) ts.SeriesSnapshot {
		return ts.SeriesSnapshot{Name: name, Help: help, Kind: ts.Counter.String(), Total: v}
	}
	gauge := func(name, help string, v float64) ts.SeriesSnapshot {
		return ts.SeriesSnapshot{Name: name, Help: help, Kind: ts.Gauge.String(), Points: []ts.Point{{V: v}}}
	}
	var ms []ts.SeriesSnapshot
	if cfg.Recorder != nil {
		ms = append(ms,
			counter("nephelix_obs_events_total", "Events recorded by the flight recorder.", float64(cfg.Recorder.Total())),
			gauge("nephelix_obs_events_buffered", "Events currently held in the ring buffer.", float64(cfg.Recorder.Len())),
		)
	}
	if cfg.Tracer != nil {
		n, mean := cfg.Tracer.EndToEnd()
		ms = append(ms,
			counter("nephelix_trace_emissions_total", "Source emissions observed by the tracer.", float64(cfg.Tracer.Emissions())),
			counter("nephelix_trace_spans_total", "Spans started by head sampling.", float64(cfg.Tracer.Spans())),
			counter("nephelix_trace_finished_total", "Spans finished at a sink.", float64(n)),
			gauge("nephelix_trace_e2e_mean_seconds", "Mean end-to-end latency of finished spans.", mean),
		)
	}
	return ms
}

// Serve starts the introspection server on addr in the background and
// returns it once the listener is bound (so scrapes cannot race the
// bind). Shut it down with Server.Close.
func Serve(addr string, cfg ServerConfig) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewHandler(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
