package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestKingmanWaitMM1(t *testing.T) {
	// For ca = cs = 1 Kingman is exact for M/M/1: W = ρ·S/(1−ρ).
	lambda, s := 80.0, 0.01 // ρ = 0.8
	want := 0.8 * 0.01 / 0.2
	if got := qos.KingmanWait(lambda, s, 1, 1); !almostEqual(got, want, 1e-12) {
		t.Errorf("KingmanWait M/M/1: got %v, want %v", got, want)
	}
	// M/D/1 (cs = 0) halves the M/M/1 wait.
	if got := qos.KingmanWait(lambda, s, 1, 0); !almostEqual(got, want/2, 1e-12) {
		t.Errorf("KingmanWait M/D/1: got %v, want %v", got, want/2)
	}
}

func TestKingmanWaitBoundaries(t *testing.T) {
	if got := qos.KingmanWait(100, 0.01, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("rho == 1: got %v, want +Inf", got)
	}
	if got := qos.KingmanWait(200, 0.01, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("rho > 1: got %v, want +Inf", got)
	}
	if got := qos.KingmanWait(0, 0.01, 1, 1); got != 0 {
		t.Errorf("no arrivals: got %v, want 0", got)
	}
	if got := qos.KingmanWait(100, 0, 1, 1); got != 0 {
		t.Errorf("zero service: got %v, want 0", got)
	}
}

func TestKingmanWaitMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for rho := 0.1; rho < 0.95; rho += 0.1 {
		w := qos.KingmanWait(rho/0.01, 0.01, 1, 1)
		if w <= prev {
			t.Fatalf("Kingman wait not increasing at rho=%v: %v <= %v", rho, w, prev)
		}
		prev = w
	}
}

// testModel builds a vertex model directly from coefficients.
func testModel(name string, a, b float64, cur, minP, maxP int) *VertexModel {
	return &VertexModel{Name: name, Current: cur, Min: minP, Max: maxP, A: a, B: b, E: 1}
}

func TestVertexModelWait(t *testing.T) {
	m := testModel("v", 0.1, 4.0, 8, 1, 64)
	if !math.IsInf(m.Wait(4), 1) || !math.IsInf(m.Wait(3), 1) {
		t.Error("wait at p <= b must be infinite")
	}
	if got := m.Wait(5); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("Wait(5): got %v, want 0.1", got)
	}
	// Strictly decreasing beyond the pole.
	for p := 5; p < 63; p++ {
		if m.Wait(p+1) >= m.Wait(p) {
			t.Fatalf("Wait not strictly decreasing at p=%d", p)
		}
	}
}

func TestVertexModelFeasibleMin(t *testing.T) {
	tests := []struct {
		b    float64
		want int
	}{{0, 1}, {0.5, 1}, {3.2, 4}, {4.0, 5}}
	for _, tt := range tests {
		m := testModel("v", 1, tt.b, 1, 1, 100)
		if got := m.FeasibleMin(); got != tt.want {
			t.Errorf("FeasibleMin(b=%v): got %d, want %d", tt.b, got, tt.want)
		}
	}
}

func TestStepToMarginalProperty(t *testing.T) {
	prop := func(aRaw, bRaw, dRaw uint16) bool {
		a := 0.001 + float64(aRaw%1000)/1000.0 // (0.001, 1]
		b := float64(bRaw % 50)
		m := testModel("v", a, b, 1, 1, 10000)
		// A marginal somewhere in the model's realistic range.
		pProbe := m.FeasibleMin() + int(dRaw%40)
		delta := m.Marginal(pProbe + 1)
		if delta >= 0 || math.IsInf(delta, -1) {
			return true
		}
		p := m.StepToMarginal(delta)
		if p < m.FeasibleMin() {
			return false
		}
		// At p the marginal must have flattened to at least delta.
		if m.Marginal(p) < delta-1e-9 {
			return false
		}
		// Minimality: one step earlier the marginal was steeper (when
		// still feasible).
		if p-1 >= m.FeasibleMin() && !math.IsInf(m.Marginal(p-1), -1) {
			return m.Marginal(p-1) <= delta+1e-9
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStepToMarginalInfiniteDelta(t *testing.T) {
	m := testModel("v", 0.5, 7.3, 1, 1, 100)
	if got := m.StepToMarginal(math.Inf(-1)); got != m.FeasibleMin() {
		t.Errorf("infinite delta: got %d, want feasible min %d", got, m.FeasibleMin())
	}
}

func TestParallelismForWaitProperty(t *testing.T) {
	prop := func(aRaw, bRaw, wRaw uint16) bool {
		a := 0.001 + float64(aRaw%1000)/1000.0
		b := float64(bRaw % 50)
		w := 0.0001 + float64(wRaw%10000)/10000.0
		m := testModel("v", a, b, 1, 1, 1<<20)
		p := m.ParallelismForWait(w)
		if m.Wait(p) > w+1e-9 {
			return false
		}
		// Minimality: p−1 violates the budget (unless p is the smallest
		// feasible parallelism anyway).
		if p-1 >= m.FeasibleMin() {
			return m.Wait(p-1) > w-1e-9
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParallelismForWaitZeroBudget(t *testing.T) {
	m := testModel("v", 0.5, 3, 1, 1, 77)
	if got := m.ParallelismForWait(0); got != 77 {
		t.Errorf("zero budget: got %d, want max 77", got)
	}
}

// buildTestSummary builds a graph src -> work -> sink plus a summary for
// "work" with the given measurements.
func buildTestSummary(t *testing.T, lambda, svc, svcCV, arrCV, chanLat, batchLat float64, p int) (*model.JobGraph, *model.Sequence, *qos.Summary) {
	t.Helper()
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1},
		{Name: "work", Parallelism: p, MinParallelism: 1, MaxParallelism: 512},
		{Name: "sink", Parallelism: 1},
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
	s := qos.NewSummary()
	s.Vertices["work"] = qos.VertexStats{
		TaskLatency:      svc,
		ServiceTimeMean:  svc,
		ServiceTimeCV:    svcCV,
		InterarrivalMean: 1 / lambda,
		InterarrivalCV:   arrCV,
		Parallelism:      p,
	}
	s.Edges[model.EdgeKey{Source: "src", Target: "work"}] = qos.EdgeStats{
		ChannelLatency:     chanLat,
		OutputBatchLatency: batchLat,
	}
	s.Edges[model.EdgeKey{Source: "work", Target: "sink"}] = qos.EdgeStats{}
	return g, seq, s
}

func TestBuildVertexModelErrorCoefficient(t *testing.T) {
	// λ = 50/s per task, S = 10 ms → ρ = 0.5; ca = cs = 1 →
	// W^K = 0.5·0.01/0.5 = 10 ms. Measured queue wait = 20 ms → e = 2.
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 0.025, 0.005, 8)
	vm, err := BuildVertexModel(g.Vertex("work"), seq, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vm.E, 2.0, 1e-9) {
		t.Errorf("error coefficient: got %v, want 2", vm.E)
	}
	// The fitted model reproduces the measured wait at current p.
	if got := vm.Wait(8); !almostEqual(got, 0.020, 1e-9) {
		t.Errorf("fitted wait at current parallelism: got %v, want 0.020", got)
	}
}

func TestBuildVertexModelWithoutErrorCoefficient(t *testing.T) {
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 0.025, 0.005, 8)
	vm, err := BuildVertexModel(g.Vertex("work"), seq, s, ModelOptions{UseErrorCoefficient: false})
	if err != nil {
		t.Fatal(err)
	}
	if vm.E != 1 {
		t.Errorf("disabled error coefficient: got e=%v, want 1", vm.E)
	}
	// Without the fit the model returns the raw Kingman estimate (10 ms),
	// underestimating the measured 20 ms — the failure mode the paper
	// warns about.
	if got := vm.Wait(8); !almostEqual(got, 0.010, 1e-9) {
		t.Errorf("unfitted wait: got %v, want 0.010", got)
	}
}

func TestBuildVertexModelCapsErrorCoefficient(t *testing.T) {
	// Same setup but measured wait of 1 s → e would be 100; cap at 5.
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 1.0, 0, 8)
	opts := DefaultModelOptions()
	opts.ErrorCoefficientMax = 5
	vm, err := BuildVertexModel(g.Vertex("work"), seq, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vm.E != 5 {
		t.Errorf("capped error coefficient: got %v, want 5", vm.E)
	}
	if len(vm.Notes) != 1 || vm.Notes[0] != "error coefficient 100 capped at 5" {
		t.Errorf("capped fit must leave one audit note, got %q", vm.Notes)
	}
}

func TestBuildVertexModelMissingMeasurements(t *testing.T) {
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 0.02, 0, 8)
	delete(s.Vertices, "work")
	if _, err := BuildVertexModel(g.Vertex("work"), seq, s, DefaultModelOptions()); err == nil {
		t.Error("missing vertex stats must error")
	}
}

func TestSequenceModelTotalWait(t *testing.T) {
	sm := &SequenceModel{Vertices: []*VertexModel{
		testModel("a", 0.1, 2, 4, 1, 16),
		testModel("b", 0.2, 3, 4, 1, 16),
	}}
	got := sm.TotalWait([]int{4, 5})
	want := 0.1/2 + 0.2/2
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("TotalWait: got %v, want %v", got, want)
	}
	if !math.IsInf(sm.TotalWait([]int{2, 5}), 1) {
		t.Error("TotalWait with saturated vertex must be +Inf")
	}
}

func TestBuildSequenceModelFromSummary(t *testing.T) {
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 0.02, 0.005, 8)
	// Constraint machinery expects coverage of both sequence vertices.
	s.Vertices["sink"] = qos.VertexStats{ServiceTimeMean: 0.0001, InterarrivalMean: 0.001, Parallelism: 1}
	full, err := model.ParseSequence(g, "src->work", "work", "work->sink", "sink")
	if err != nil {
		t.Fatal(err)
	}
	_ = seq
	sm, err := BuildSequenceModel(g, full, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Vertices) != 2 || sm.Vertices[0].Name != "work" || sm.Vertices[1].Name != "sink" {
		t.Errorf("sequence model vertices: %+v", sm.Vertices)
	}
}

// TestFittedModelPredictsScaledQueue checks the model's core promise: a
// synthetic M/M/1-style vertex measured at parallelism p predicts lower
// waits at higher parallelism, following W(p*) = e·a/(p*−b).
func TestFittedModelPredictsScaledQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano() % 1000))
	_ = rng
	g, seq, s := buildTestSummary(t, 90, 0.01, 1, 1, 0.1, 0.0, 4) // ρ = 0.9 per task
	vm, err := BuildVertexModel(g.Vertex("work"), seq, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	wCur := vm.Wait(4)
	wDouble := vm.Wait(8)
	if !(wDouble < wCur/3) {
		t.Errorf("doubling parallelism at rho=0.9 should cut wait sharply: %v -> %v", wCur, wDouble)
	}
}

// TestStepToMarginalMatchesPaperClosedForm verifies that the simplified
// expression p = b − 1/2 + sqrt(1/4 − a/δ) equals the paper's literal
// ⌈(2b−1)/2 + sqrt(((1−2b)/2)² − (a+δ(b²−b))/δ)⌉ for all valid inputs.
func TestStepToMarginalMatchesPaperClosedForm(t *testing.T) {
	paper := func(a, b, delta float64) float64 {
		return (2*b-1)/2 + math.Sqrt(math.Pow((1-2*b)/2, 2)-(a+delta*(b*b-b))/delta)
	}
	prop := func(aRaw, bRaw, dRaw uint16) bool {
		a := 0.001 + float64(aRaw%1000)/500.0
		b := float64(bRaw%200) / 2.0
		delta := -(1e-6 + float64(dRaw%10000)/1e6)
		ours := b - 0.5 + math.Sqrt(0.25-a/delta)
		theirs := paper(a, b, delta)
		return almostEqual(ours, theirs, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRebalanceRespectsVertexBounds is a property test across random
// problems: results always lie within [max(min, pMin), max].
func TestRebalanceRespectsVertexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		sm := &SequenceModel{}
		pMin := map[string]int{}
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			minP := 1 + rng.Intn(4)
			maxP := minP + rng.Intn(60)
			sm.Vertices = append(sm.Vertices, &VertexModel{
				Name: name, Current: minP, Min: minP, Max: maxP,
				A: rng.Float64() * 0.3, B: rng.Float64() * float64(maxP) / 2, E: 1,
			})
			if rng.Intn(2) == 0 {
				pMin[name] = minP + rng.Intn(maxP-minP+1)
			}
		}
		p, err := Rebalance(sm, 0.001+rng.Float64()*0.2, pMin)
		infeasible := errors.Is(err, ErrInfeasible)
		if err != nil && !infeasible {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, vm := range sm.Vertices {
			got := p[vm.Name]
			lo := vm.Min
			if pm, ok := pMin[vm.Name]; ok && pm > lo && !infeasible {
				lo = pm
			}
			if got < lo || got > vm.Max {
				t.Fatalf("trial %d: %s=%d outside [%d, %d] (infeasible=%v)",
					trial, vm.Name, got, lo, vm.Max, infeasible)
			}
		}
	}
}
