package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nephelix/internal/obs/ts"
)

// TestBackpressureClassify pins the attribution heuristic: stall rate or
// high occupancy means backpressure, the consumer's busy fraction
// separates consumer-limited from ring-saturated, and quiet edges are
// idle rather than producer-limited.
func TestBackpressureClassify(t *testing.T) {
	cases := []struct {
		name    string
		edge    DataplaneEdge
		state   BackpressureState
		culprit string
	}{
		{"busy consumer, stalls", DataplaneEdge{
			Edge: "a->b", Consumer: "b", Pushes: 100, PushRate: 100,
			StallFrac: 0.2, ConsumerBusy: 0.9}, BackpressureConsumerLimited, "b"},
		{"idle consumer, full ring", DataplaneEdge{
			Edge: "a->b", Consumer: "b", Pushes: 100, PushRate: 100,
			OccupancyFrac: 0.9, ConsumerBusy: 0.1}, BackpressureRingSaturated, "b"},
		{"flowing cleanly", DataplaneEdge{
			Edge: "a->b", Producer: "a", Pushes: 100, PushRate: 100,
			StallFrac: 0.0, OccupancyFrac: 0.1}, BackpressureProducerLimited, "a"},
		{"no traffic", DataplaneEdge{Edge: "a->b"}, BackpressureIdle, ""},
	}
	for _, c := range cases {
		state, culprit := classify(c.edge)
		if state != c.state || culprit != c.culprit {
			t.Errorf("%s: got (%s, %q), want (%s, %q)", c.name, state, culprit, c.state, c.culprit)
		}
	}
}

// TestBackpressureTransitions: an onset is recorded once on entering a
// backpressured state, switching between the two backpressured states
// continues the episode, and leaving it records one cleared event with
// the episode duration.
func TestBackpressureTransitions(t *testing.T) {
	m := NewBackpressureMonitor()
	rec := NewRecorder(16)
	hot := DataplaneEdge{Edge: "a->b", Consumer: "b", Pushes: 1, PushRate: 100, StallFrac: 0.5, ConsumerBusy: 0.9}
	saturated := hot
	saturated.ConsumerBusy = 0.1
	calm := DataplaneEdge{Edge: "a->b", Producer: "a", Pushes: 1, PushRate: 100}

	m.Observe(1, []DataplaneEdge{hot}, rec)
	m.Observe(2, []DataplaneEdge{saturated}, rec) // same episode, new flavor
	st := m.Observe(3, []DataplaneEdge{calm}, rec)

	if st[0].Onsets != 1 {
		t.Errorf("onsets = %d, want 1", st[0].Onsets)
	}
	if got := st[0].Intervals[string(BackpressureConsumerLimited)]; got != 1 {
		t.Errorf("consumer-limited intervals = %d, want 1", got)
	}
	if got := st[0].Intervals[string(BackpressureRingSaturated)]; got != 1 {
		t.Errorf("ring-saturated intervals = %d, want 1", got)
	}
	var kinds []string
	var cleared *Event
	for _, ev := range rec.Events() {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == KindBackpressureCleared {
			ev := ev
			cleared = &ev
		}
	}
	want := []string{KindBackpressureOnset, KindBackpressureCleared}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	if cleared.Lifecycle.DurationSeconds != 2 {
		t.Errorf("episode duration = %v, want 2", cleared.Lifecycle.DurationSeconds)
	}
	if cleared.Lifecycle.Vertex != "b" {
		t.Errorf("cleared culprit = %q, want b", cleared.Lifecycle.Vertex)
	}
}

// TestObserveDataplane: feeding a snapshot classifies its edges, caches
// it for /dataplane and the SSE stream, and publishes the gauge series.
func TestObserveDataplane(t *testing.T) {
	tel := NewTelemetry(64)
	tel.ObserveDataplane(DataplaneSnapshot{
		At: 5, Layer: "engine", IntervalSeconds: 1,
		Edges: []DataplaneEdge{{
			Edge: "src->work", Producer: "src", Consumer: "work",
			Rings: 2, Occupancy: 12, Capacity: 16, HighWater: 8,
			Pushes: 1000, PushFails: 200, Pops: 988,
			PushRate: 100, PopRate: 99, StallRate: 20, StallFrac: 0.17,
			OccupancyFrac: 0.75, ConsumerBusy: 0.95,
		}},
		Consumers: []DataplaneConsumer{{Vertex: "work", Parks: 42, Wakes: 40}},
		Wheel:     &DataplaneWheel{Fires: 7},
		Pool:      []DataplanePoolShard{{Shard: 0, Hits: 10, Misses: 2, HitRate: 10.0 / 12}},
	}, nil)

	dp := tel.Dataplane()
	if dp == nil || len(dp.Edges) != 1 {
		t.Fatalf("Dataplane() = %+v", dp)
	}
	if dp.Edges[0].State != string(BackpressureConsumerLimited) || dp.Edges[0].Culprit != "work" {
		t.Errorf("edge classified %s/%s, want consumer-limited/work", dp.Edges[0].State, dp.Edges[0].Culprit)
	}
	if len(dp.Backpressure) != 1 || dp.Backpressure[0].Onsets != 1 {
		t.Errorf("backpressure statuses: %+v", dp.Backpressure)
	}

	var b strings.Builder
	ts.WriteExposition(&b, tel.Store().Query("", 0, 0))
	body := b.String()
	for _, want := range []string{
		`nephelix_dataplane_ring_occupancy{edge="src->work"} 12`,
		`nephelix_dataplane_backpressure_state{edge="src->work"} 2`,
		"nephelix_dataplane_wheel_fires_total 7",
		`nephelix_dataplane_pool_hit_rate{shard="0"}`,
		`nephelix_dataplane_consumer_parks_total{vertex="work"} 42`,
		`nephelix_dataplane_consumer_wakes_total{vertex="work"} 40`,
		"# HELP nephelix_dataplane_ring_occupancy Summed SPSC ring occupancy",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{"nephelix_dataplane_wheel_armed", "nephelix_dataplane_wheel_parked_frac"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still has the retired wheel series %s", gone)
		}
	}
	checkHelpBeforeType(t, body)
}

// checkHelpBeforeType fails for every # TYPE line of an exposition that
// does not follow a # HELP line for the same name. The golden run covers
// the families a simulated job produces; the tests of the engine-only
// ones (deadline flushes, pool, source tasks) call this.
func checkHelpBeforeType(t *testing.T, body string) {
	t.Helper()
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
				t.Errorf("family %s has no # HELP line", name)
			}
		}
	}
}

// TestObsDataplaneEndpoint: /dataplane serves the latest snapshot as
// JSON, degrading to an empty (never null) payload before the first
// sample or without telemetry; the /timeseries snapshot always carries
// the dataplane key so dashboard clients can probe for it.
func TestObsDataplaneEndpoint(t *testing.T) {
	tel := NewTelemetry(64)
	srv := httptest.NewServer(NewHandler(ServerConfig{Telemetry: tel}))
	defer srv.Close()

	get := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(srv.URL + "/dataplane")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("content type %q", ct)
		}
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}

	if raw := get(); string(raw["edges"]) != "[]" {
		t.Errorf("pre-sample edges = %s, want []", raw["edges"])
	}

	tel.ObserveDataplane(DataplaneSnapshot{
		At: 1, Layer: "sim", IntervalSeconds: 1,
		Edges: []DataplaneEdge{{Edge: "a->b", Producer: "a", Consumer: "b", Pushes: 1, PushRate: 1}},
	}, nil)
	raw := get()
	if string(raw["layer"]) != `"sim"` {
		t.Errorf("layer = %s, want sim", raw["layer"])
	}
	var edges []DataplaneEdge
	if err := json.Unmarshal(raw["edges"], &edges); err != nil || len(edges) != 1 {
		t.Fatalf("edges = %s", raw["edges"])
	}

	// The SSE/timeseries snapshot must always expose the key.
	resp, err := http.Get(srv.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snapRaw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snapRaw); err != nil {
		t.Fatal(err)
	}
	if _, ok := snapRaw["dataplane"]; !ok {
		t.Error("/timeseries snapshot lacks the dataplane key")
	}
}

// TestSourceEmittedExposition: the per-task source gauge, written from
// the data-plane snapshot's source entries, renders with registry
// HELP/TYPE and its full vertex/task label set.
func TestSourceEmittedExposition(t *testing.T) {
	tel := NewTelemetry(64)
	tel.ObserveDataplane(DataplaneSnapshot{
		At: 1, Layer: "engine", IntervalSeconds: 1,
		Sources: []DataplaneSource{{Vertex: "src", Task: "src[0]", Emitted: 4096}},
	}, nil)

	var b strings.Builder
	ts.WriteExposition(&b, tel.Store().Query("", 0, 0))
	body := b.String()
	for _, want := range []string{
		"# HELP nephelix_source_emitted Records emitted by one source task (cumulative, labeled vertex/task).",
		"# TYPE nephelix_source_emitted gauge",
		`nephelix_source_emitted{task="src[0]",vertex="src"} 4096`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}
	checkHelpBeforeType(t, body)
}

// TestDataplaneRatesDerive pins the derivation both scrapers share:
// rates are deltas of consecutive cumulative samples, a counter that
// went backwards (a ring that left) clamps to zero, a task seen for the
// first time contributes its whole busy total, and the busy fraction is
// per consumer task and capped at 1.
func TestDataplaneRatesDerive(t *testing.T) {
	var r DataplaneRates
	sample := func(pushes, fails, pops uint64, occ int, busy ...TaskBusy) DataplaneEdge {
		edges := []DataplaneEdge{{Edge: "a->b", Consumer: "b", Pushes: pushes, PushFails: fails, Pops: pops, Occupancy: occ, Capacity: 40}}
		r.Derive(edges, busy, 2)
		return edges[0]
	}
	e := sample(100, 0, 80, 20, TaskBusy{"b", "b[0]", 1}, TaskBusy{"b", "b[1]", 0.5})
	if e.PushRate != 50 || e.PopRate != 40 || e.StallFrac != 0 || e.OccupancyFrac != 0.5 || e.RingWaitSeconds != 0.5 || e.ConsumerBusy != 1.5/4 {
		t.Fatalf("first sample: %+v", e)
	}
	e = sample(160, 20, 180, 0, TaskBusy{"b", "b[0]", 2.5}, TaskBusy{"b", "b[2]", 3})
	if e.PushRate != 30 || e.StallRate != 10 || e.StallFrac != 0.25 || e.PopRate != 50 || e.ConsumerBusy != 1 {
		t.Fatalf("second sample: %+v", e)
	}
	if e = sample(10, 20, 180, 0); e.PushRate != 0 || e.PopRate != 0 || e.ConsumerBusy != 0 {
		t.Fatalf("counters that went backwards must clamp to zero: %+v", e)
	}
}
