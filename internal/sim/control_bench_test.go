package sim

import (
	"math"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// BenchmarkControlTick is the control plane's per-layer number: one op is
// one measurementTick plus one adjustmentTick — every reporter flushed
// into its manager, the partial summaries merged, batching and the scaler
// run, telemetry and the data plane scraped — on a 128-task job
// (src(1) → server(126) → sink(1), 252 channels) under a p99 constraint,
// so the queue-wait sketches cycle too. The server's parallelism is
// pinned, so the scaler decides and acts on nothing. Between ops, untimed,
// the data plane runs 0.1 virtual seconds (25 items per server).
func BenchmarkControlTick(b *testing.B) {
	const servers = 126
	probes := probe.NewProbeSet()
	cfg := pipelineConfig(b, probes,
		&workload.ConstantSchedule{RatePerSecond: 250 * servers, Length: math.Inf(1)}, false, servers,
		func(int) Behavior { return &testServer{mean: 1e-3, exponential: true} })
	v := cfg.Graph.Vertex("server")
	v.MinParallelism, v.MaxParallelism = servers, servers
	for ek := range cfg.Edges {
		cfg.Edges[ek] = EdgeConfig{Mode: BatchAdaptive}
	}
	seq, err := model.ParseSequence(cfg.Graph, "src->server", "server", "server->sink")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Constraints = []*model.Constraint{{
		Name: "p99", Sequence: seq, Bound: 30 * time.Millisecond, Window: 10 * time.Second, Quantile: 0.99,
	}}
	probes.SetBound("e2e", 0.030)
	cfg.Elastic = true
	cfg.Scaler = core.DefaultScalerConfig()
	cfg.Telemetry = obs.NewTelemetry(0)
	cfg.Duration = math.Inf(1)
	s, err := New(cfg, probes)
	if err != nil {
		b.Fatal(err)
	}
	var ev event
	interval := func() {
		for until := s.now + 0.1; s.now < until && s.err == nil && s.q.pop(&ev); {
			s.now = ev.at
			s.dispatch(&ev)
		}
		s.measurementTick()
		s.adjustmentTick()
	}
	for i := 0; i < 50; i++ { // histories full, series resolved, sketches cycling
		interval()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for until := s.now + 0.1; s.now < until && s.err == nil && s.q.pop(&ev); {
			s.now = ev.at
			s.dispatch(&ev)
		}
		b.StartTimer()
		s.measurementTick()
		s.adjustmentTick()
	}
	b.StopTimer()
	if s.err != nil {
		b.Fatal(s.err)
	}
	if n := len(s.vertices["server"].tasks); n != servers {
		b.Fatalf("the scaler moved the pinned vertex to %d tasks", n)
	}
}
