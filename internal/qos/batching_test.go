package qos

import (
	"testing"
	"time"

	"nephelix/internal/model"
)

// controllerFixture builds src -> work -> sink, a 20 ms constraint over
// (src->work, work, work->sink), and a summary generator.
type controllerFixture struct {
	g          *model.JobGraph
	constraint *model.Constraint
	e1, e2     model.EdgeKey
}

func newControllerFixture(t *testing.T) *controllerFixture {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 2},
		{Name: "work", Parallelism: 4, MinParallelism: 1, MaxParallelism: 64},
		{Name: "sink", Parallelism: 2},
	} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("src", "work", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		t.Fatal(err)
	}
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	return &controllerFixture{
		g:          g,
		constraint: &model.Constraint{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second},
		e1:         model.EdgeKey{Source: "src", Target: "work"},
		e2:         model.EdgeKey{Source: "work", Target: "sink"},
	}
}

// summary builds a summary with the given work-vertex utilization and
// per-edge (wait, obl) pairs.
func (f *controllerFixture) summary(rho, w1, obl1, w2, obl2 float64) *Summary {
	s := NewSummary()
	svc := 0.004
	s.Vertices["work"] = VertexStats{
		TaskLatency:      svc,
		ServiceTimeMean:  svc,
		ServiceTimeCV:    0.4,
		InterarrivalMean: svc / rho,
		InterarrivalCV:   1.0,
		Parallelism:      4,
	}
	s.Edges[f.e1] = EdgeStats{ChannelLatency: w1 + obl1, OutputBatchLatency: obl1}
	s.Edges[f.e2] = EdgeStats{ChannelLatency: w2 + obl2, OutputBatchLatency: obl2}
	return s
}

func TestControllerUncoveredStaysInstant(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	dl := c.Update(NewSummary(), []*model.Constraint{f.constraint})
	if dl[f.e1] != 0 || dl[f.e2] != 0 {
		t.Errorf("uncovered constraint must keep instant flushing: %v", dl)
	}
}

func TestControllerGrowsIntoSlack(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	// Low load, tiny waits, no batching yet: lots of slack.
	s := f.summary(0.2, 0.0002, 0, 0.0001, 0)
	var prev1, prev2 float64
	for i := 0; i < 30; i++ {
		dl := c.Update(s, []*model.Constraint{f.constraint})
		if dl[f.e1]+1e-15 < prev1 || dl[f.e2]+1e-15 < prev2 {
			t.Fatalf("iteration %d: deadlines shrank under slack: %v", i, dl)
		}
		prev1, prev2 = dl[f.e1], dl[f.e2]
	}
	if prev1 <= 0 && prev2 <= 0 {
		t.Error("no deadline grew despite slack")
	}
	// The absolute cap bounds any deadline.
	if prev1 > batchDeadlineAbsCap+1e-12 || prev2 > batchDeadlineAbsCap+1e-12 {
		t.Errorf("deadline exceeds absolute cap: %v / %v", prev1, prev2)
	}
}

func TestControllerShrinksOnBatchResidue(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	// Grow first.
	low := f.summary(0.2, 0.0002, 0.001, 0.0001, 0.001)
	for i := 0; i < 20; i++ {
		c.Update(low, []*model.Constraint{f.constraint})
	}
	grown := c.deadlines["c"][f.e1]
	// Now the work edge shows a large wait at low utilization: batch
	// residue → shrink edge 1.
	high := f.summary(0.2, 0.008, 0.002, 0.0001, 0.001)
	for i := 0; i < 5; i++ {
		c.Update(high, []*model.Constraint{f.constraint})
	}
	shrunk := c.deadlines["c"][f.e1]
	if shrunk >= grown {
		t.Errorf("edge 1 deadline did not shrink: %v -> %v", grown, shrunk)
	}
}

func TestControllerHopelessNeedsSaturation(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	// Waits above the bound but utilization low: the wait is batching's
	// own doing; deadlines must shrink, not grow.
	s := f.summary(0.3, 0.050, 0.004, 0.001, 0.002)
	for i := 0; i < 3; i++ {
		c.Update(s, []*model.Constraint{f.constraint})
	}
	dl1 := c.deadlines["c"][f.e1]
	if dl1 != 0 {
		t.Errorf("unsaturated overload must shrink toward instant flush, got %v", dl1)
	}

	// Same waits at saturation: batch as much as possible.
	c2 := NewBatchingController(DefaultBatchingPolicy())
	sat := f.summary(0.99, 0.500, 0.004, 0.100, 0.002)
	var dl map[model.EdgeKey]float64
	for i := 0; i < 10; i++ {
		dl = c2.Update(sat, []*model.Constraint{f.constraint})
	}
	if dl[f.e1] <= 0 || dl[f.e2] <= 0 {
		t.Errorf("saturated overload must batch maximally: %v", dl)
	}
}

func TestControllerStrictestConstraintWins(t *testing.T) {
	f := newControllerFixture(t)
	seqTight, err := model.ParseSequence(f.g, "src->work", "work")
	if err != nil {
		t.Fatal(err)
	}
	tight := &model.Constraint{Name: "tight", Sequence: seqTight, Bound: 2 * time.Millisecond, Window: time.Second}
	c := NewBatchingController(DefaultBatchingPolicy())
	s := f.summary(0.2, 0.0002, 0, 0.0001, 0)
	var dl map[model.EdgeKey]float64
	for i := 0; i < 20; i++ {
		dl = c.Update(s, []*model.Constraint{f.constraint, tight})
	}
	// The 2 ms constraint's cap is (2 − 4) ms < 0 → 0: the shared edge
	// must stay at instant flushing despite the loose constraint.
	if dl[f.e1] != 0 {
		t.Errorf("shared edge ignores the tighter constraint: %v", dl[f.e1])
	}
	if dl[f.e2] <= 0 {
		t.Errorf("unshared edge should still batch: %v", dl[f.e2])
	}
}

func TestControllerDeadlineAccessor(t *testing.T) {
	c := NewBatchingController(DefaultBatchingPolicy())
	if _, ok := c.deadlines["missing"]; ok {
		t.Error("unknown constraint reported a deadline")
	}
}

func TestKingmanWaitHelper(t *testing.T) {
	kingmanWait := func(v VertexStats) float64 {
		return KingmanWait(v.ArrivalRate(), v.ServiceTimeMean, v.InterarrivalCV*v.InterarrivalCV, v.ServiceTimeCV*v.ServiceTimeCV)
	}
	v := VertexStats{ServiceTimeMean: 0.01, InterarrivalMean: 0.0125, InterarrivalCV: 1, ServiceTimeCV: 1}
	// ρ = 0.8, M/M/1: W = 0.8·0.01/0.2 = 40 ms.
	if got := kingmanWait(v); got < 0.039 || got > 0.041 {
		t.Errorf("kingmanWait: got %v, want ≈0.040", got)
	}
	sat := VertexStats{ServiceTimeMean: 0.01, InterarrivalMean: 0.009}
	if got := kingmanWait(sat); got != got+1 && !(got > 1e308) { // +Inf check
		if got < 1e308 {
			t.Errorf("saturated vertex: got %v, want +Inf", got)
		}
	}
	if got := kingmanWait(VertexStats{}); got != 0 {
		t.Errorf("empty stats: got %v, want 0", got)
	}
}

func TestControllerProducerSaturationGrowth(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	c.SetElastic(true)
	// Saturated source (ρ = 1): emission cost equals the interval.
	s := f.summary(0.3, 0.004, 0.0005, 0.0002, 0.0005)
	s.Vertices["src"] = VertexStats{
		TaskLatency: 0.0012, ServiceTimeMean: 0.0012,
		InterarrivalMean: 0.0012, Parallelism: 2,
	}
	var dl map[model.EdgeKey]float64
	for i := 0; i < 8; i++ {
		dl = c.Update(s, []*model.Constraint{f.constraint})
	}
	if dl[f.e1] <= 0 {
		t.Errorf("producer-bound edge did not grow: %v", dl[f.e1])
	}
	// The consumer-side edge (work→sink) is untouched by the
	// producer-bound branch unless its own producer saturates.
	if dl[f.e2] > dl[f.e1] {
		t.Errorf("non-bound edge grew more: e1=%v e2=%v", dl[f.e1], dl[f.e2])
	}
}

func TestControllerProtectsBusyProducersFromShrink(t *testing.T) {
	f := newControllerFixture(t)
	c := NewBatchingController(DefaultBatchingPolicy())
	// Grow both edges first under light load.
	light := f.summary(0.2, 0.0002, 0.001, 0.0001, 0.001)
	for i := 0; i < 20; i++ {
		c.Update(light, []*model.Constraint{f.constraint})
	}
	before1 := c.deadlines["c"][f.e1]
	// High residues everywhere, but e1's producer is 70% busy: the
	// shrink must pick e2.
	hot := f.summary(0.3, 0.008, 0.001, 0.008, 0.001)
	hot.Vertices["src"] = VertexStats{
		ServiceTimeMean: 0.0007, InterarrivalMean: 0.001, Parallelism: 2,
	}
	c.Update(hot, []*model.Constraint{f.constraint})
	after1 := c.deadlines["c"][f.e1]
	after2 := c.deadlines["c"][f.e2]
	if after1 < before1 {
		t.Errorf("protected edge shrank: %v -> %v", before1, after1)
	}
	before2 := before1 // both grew to the same cap under light load
	if after2 >= before2 {
		t.Errorf("unprotected edge did not shrink: %v", after2)
	}
}
