package ts

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestObsTSCounter: counters accumulate and each point stores the
// running total.
func TestObsTSCounter(t *testing.T) {
	st := NewStore(8)
	reqs := st.Family(Counter, "reqs", "Requests.")
	c := reqs.With()
	c.Add(1, 2)
	c.Add(2, 3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter total: got %v, want 5", got)
	}
	snap := st.Query("", 0, 0)
	if len(snap) != 1 {
		t.Fatalf("series: got %d, want 1", len(snap))
	}
	if snap[0].Kind != "counter" || snap[0].Total != 5 || snap[0].Help != "Requests." {
		t.Errorf("snapshot: %+v", snap[0])
	}
	want := []Point{{T: 1, V: 2}, {T: 2, V: 5}}
	if len(snap[0].Points) != 2 || snap[0].Points[0] != want[0] || snap[0].Points[1] != want[1] {
		t.Errorf("points: got %v, want %v", snap[0].Points, want)
	}
}

// TestObsTSGaugeRingWrap: the ring keeps only the newest points, in
// time order, once capacity is exceeded.
func TestObsTSGaugeRingWrap(t *testing.T) {
	st := NewStore(4)
	load := st.Family(Gauge, "load", "", "vertex")
	g := load.With("v1")
	for i := 0; i < 10; i++ {
		g.Set(float64(i), float64(i*i))
	}
	snap := st.Query("", 0, 0)[0]
	if len(snap.Points) != 4 {
		t.Fatalf("ring size: got %d points, want 4", len(snap.Points))
	}
	for i, p := range snap.Points {
		wantT := float64(6 + i)
		if p.T != wantT || p.V != wantT*wantT {
			t.Errorf("point %d: got %+v, want t=%v v=%v", i, p, wantT, wantT*wantT)
		}
	}
	if g.Value() != 81 {
		t.Errorf("latest value: got %v, want 81", g.Value())
	}
}

// TestObsTSHistogram: observations land in the cumulative
// LatencyBuckets (a value on a bound counts under it) with sum and count,
// and the snapshot marshals to JSON (finite bounds only).
func TestObsTSHistogram(t *testing.T) {
	st := NewStore(8)
	lat := st.Family(Histogram, "lat", "")
	h := lat.With()
	for _, v := range []float64{0.00005, 0.001, 0.5, 50} {
		h.Observe(0, v)
	}
	snap := st.Query("", 0, 0)[0]
	if snap.Count != 4 || snap.Sum != 50.50105 {
		t.Errorf("sum/count: got %v/%d", snap.Sum, snap.Count)
	}
	if len(snap.Buckets) != len(LatencyBuckets) {
		t.Fatalf("buckets: got %d, want %d", len(snap.Buckets), len(LatencyBuckets))
	}
	for i, b := range snap.Buckets {
		want := uint64(1)
		if b.LE >= 0.001 {
			want = 2
		}
		if b.LE >= 0.5 {
			want = 3 // 50 s is beyond the last bound: only the implicit +Inf bucket has it
		}
		if b.LE != LatencyBuckets[i] || b.Count != want {
			t.Errorf("bucket le=%v: got %d, want %d", b.LE, b.Count, want)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("histogram snapshot must marshal: %v", err)
	}
}

// TestObsTSIdentity: a family's children are keyed by the label-value
// tuple, label content cannot alias another identity, and a kind mismatch
// or a wrong value count yields a nil (no-op) series instead of
// corrupting the original.
func TestObsTSIdentity(t *testing.T) {
	st := NewStore(8)
	g, again := st.Family(Gauge, "g", "", "x"), st.Family(Gauge, "g", "", "x")
	a := g.With("1")
	if g.With("1") != a || again.With("1") != a {
		t.Error("same identity must return the same series, whichever declaration resolves it")
	}
	if c := g.With("2"); c == a {
		t.Error("different label value must return a distinct series")
	}
	// Crafted values that would collide under naive separator joining.
	ab := st.Family(Gauge, "ab", "", "a", "b")
	ab.With(`x","b":"y`, "")
	ab.With("x", "y")
	ab.With("x,y", "")
	if st.Len() != 5 {
		t.Errorf("store series: got %d, want 5 (no identity collisions)", st.Len())
	}
	wrongKind, u, wrongKindU := st.Family(Counter, "g", "", "x"), st.Family(Gauge, "u", ""), st.Family(Counter, "u", "")
	u.With()
	if wrongKind.With("1") != nil || wrongKindU.With() != nil {
		t.Error("an identity that exists with another kind must return nil")
	}
	if g.With() != nil || g.With("1", "2") != nil {
		t.Error("a value count other than the declared label count must return nil")
	}
	a.Set(1, 42)
	if a.Value() != 42 {
		t.Error("original series must survive a mismatched lookup")
	}
}

// TestObsTSQuery: prefix, since and maxPoints filters.
func TestObsTSQuery(t *testing.T) {
	st := NewStore(16)
	par, dec := st.Family(Gauge, "nephelix_vertex_parallelism", ""), st.Family(Counter, "nephelix_scaler_decisions_total", "")
	g := par.With()
	for i := 0; i < 10; i++ {
		g.Set(float64(i), float64(i))
	}
	dec.With().Add(0, 1)

	if got := st.Query("nephelix_vertex_", 0, 0); len(got) != 1 {
		t.Fatalf("prefix query: got %d series, want 1", len(got))
	}
	got := st.Query("nephelix_vertex_", 5, 0)[0]
	if len(got.Points) != 5 || got.Points[0].T != 5 {
		t.Errorf("since filter: got %v", got.Points)
	}
	got = st.Query("nephelix_vertex_", 0, 3)[0]
	if len(got.Points) != 3 || got.Points[0].T != 7 {
		t.Errorf("maxPoints must keep the newest: got %v", got.Points)
	}
	// Snapshot order is by identity key, deterministic.
	snap := st.Query("", 0, 0)
	if snap[0].Name != "nephelix_scaler_decisions_total" || snap[1].Name != "nephelix_vertex_parallelism" {
		t.Errorf("snapshot order: %s, %s", snap[0].Name, snap[1].Name)
	}
}

// TestObsTSConcurrentScrapeVsRecord hammers the store with concurrent
// recorders and scrapers; run under -race this is the satellite's
// concurrency guarantee for the ts layer.
func TestObsTSConcurrentScrapeVsRecord(t *testing.T) {
	st := NewStore(32)
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	gf, cf, hf := st.Family(Gauge, "g", "", "w"), st.Family(Counter, "c", ""), st.Family(Histogram, "h", "")
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			g, c, h := gf.With(string(rune('a'+w))), cf.With(), hf.With()
			for i := 0; i < 2000; i++ {
				g.Set(float64(i), float64(i))
				c.Add(float64(i), 1)
				h.Observe(float64(i), float64(i)/1000)
			}
		}(w)
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = st.Query("", 0, 0)
				_ = st.Query("g", 0, 8)
			}
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()

	if got := cf.With().Value(); got != 8000 {
		t.Errorf("concurrent counter total: got %v, want 8000", got)
	}
}

// TestObsTSDisabledAllocs pins the zero-cost disabled contract: every
// operation on a nil store, family or series must not allocate.
func TestObsTSDisabledAllocs(t *testing.T) {
	var st *Store
	var s *Series
	allocs := testing.AllocsPerRun(100, func() {
		c, g, h := st.Family(Counter, "c", "", "vertex"), st.Family(Gauge, "g", "", "vertex"), st.Family(Histogram, "h", "", "vertex")
		c.With("v").Add(1, 1)
		g.With("v").Set(1, 1)
		h.With("v").Observe(1, 1)
		s.Add(1, 1)
		s.Set(1, 1)
		s.Observe(1, 1)
		_ = s.Value()
		_ = st.Query("", 0, 0)
		_ = st.Query("", 0, 0)
		_ = st.Len()
	})
	if allocs != 0 {
		t.Errorf("disabled ts path allocates: %v allocs/op, want 0", allocs)
	}
}
