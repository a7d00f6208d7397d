package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSequenceModel builds a feasible-by-construction sequence model of
// n vertices with randomized coefficients.
func randomSequenceModel(rng *rand.Rand, n, maxP int) *SequenceModel {
	sm := &SequenceModel{}
	for i := 0; i < n; i++ {
		a := 0.001 + rng.Float64()*0.5
		b := rng.Float64() * float64(maxP) * 0.4
		sm.Vertices = append(sm.Vertices, &VertexModel{
			Name:    string(rune('a' + i)),
			Current: 1,
			Min:     1,
			Max:     maxP,
			A:       a,
			B:       b,
			E:       1,
		})
	}
	return sm
}

func waitOf(sm *SequenceModel, p map[string]int) float64 {
	ps := make([]int, len(sm.Vertices))
	for i, vm := range sm.Vertices {
		ps[i] = p[vm.Name]
	}
	return sm.TotalWait(ps)
}

func totalOf(p map[string]int) int {
	sum := 0
	for _, v := range p {
		sum += v
	}
	return sum
}

func TestRebalanceSatisfiesLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		sm := randomSequenceModel(rng, n, 64)
		wLimit := 0.001 + rng.Float64()*0.2
		p, err := Rebalance(sm, wLimit, nil)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			// Best effort must be max scale-out.
			for _, vm := range sm.Vertices {
				if p[vm.Name] != vm.Max {
					t.Fatalf("trial %d: infeasible result not at max: %v", trial, p)
				}
			}
			continue
		}
		if w := waitOf(sm, p); w > wLimit+1e-9 {
			t.Fatalf("trial %d: W=%v exceeds limit %v (p=%v)", trial, w, wLimit, p)
		}
		for _, vm := range sm.Vertices {
			if p[vm.Name] < vm.Min || p[vm.Name] > vm.Max {
				t.Fatalf("trial %d: %s=%d outside [%d,%d]", trial, vm.Name, p[vm.Name], vm.Min, vm.Max)
			}
		}
	}
}

// TestRebalanceLocalMinimality: decreasing any single vertex by one must
// violate the limit or a lower bound — the solution sits on the candidate
// surface of Figure 5.
func TestRebalanceLocalMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sm := randomSequenceModel(rng, 1+rng.Intn(4), 64)
		wLimit := 0.005 + rng.Float64()*0.1
		p, err := Rebalance(sm, wLimit, nil)
		if err != nil {
			continue
		}
		for _, vm := range sm.Vertices {
			if p[vm.Name] <= vm.Min {
				continue // bounded below; cannot decrease
			}
			p[vm.Name]--
			w := waitOf(sm, p)
			p[vm.Name]++
			if w <= wLimit-1e-9 {
				t.Fatalf("trial %d: decreasing %s to %d keeps W=%v <= %v; solution %v not minimal",
					trial, vm.Name, p[vm.Name]-1, w, wLimit, p)
			}
		}
	}
}

// TestRebalanceMatchesBruteForce compares the descent against exhaustive
// search on small instances: the total parallelism must be optimal.
func TestRebalanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(3)
		maxP := 10
		sm := randomSequenceModel(rng, n, maxP)
		wLimit := 0.005 + rng.Float64()*0.3

		best := math.MaxInt
		var rec func(i, sum int, ps []int)
		rec = func(i, sum int, ps []int) {
			if sum >= best {
				return
			}
			if i == n {
				if sm.TotalWait(ps) <= wLimit {
					best = sum
				}
				return
			}
			for p := sm.Vertices[i].Min; p <= sm.Vertices[i].Max; p++ {
				ps[i] = p
				rec(i+1, sum+p, ps)
			}
		}
		rec(0, 0, make([]int, n))

		p, err := Rebalance(sm, wLimit, nil)
		if best == math.MaxInt {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: brute force infeasible but Rebalance returned %v, err=%v", trial, p, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: brute force feasible (total %d) but Rebalance errored: %v", trial, best, err)
		}
		if got := totalOf(p); got != best {
			t.Fatalf("trial %d: Rebalance total %d != optimal %d (p=%v, limit=%v)", trial, got, best, p, wLimit)
		}
	}
}

func TestRebalanceRespectsPMin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sm := randomSequenceModel(rng, 3, 64)
	pMin := map[string]int{"a": 10, "b": 5}
	p, err := Rebalance(sm, 1.0, pMin) // loose limit
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if p["a"] < 10 || p["b"] < 5 {
		t.Errorf("pMin violated: %v", p)
	}
}

func TestRebalanceInfeasible(t *testing.T) {
	// One vertex with an enormous fitted wait even at max.
	sm := &SequenceModel{Vertices: []*VertexModel{
		testModel("v", 100, 0, 1, 1, 4), // W(4) = 25 s
	}}
	p, err := Rebalance(sm, 0.001, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if p["v"] != 4 {
		t.Errorf("infeasible best effort: got %d, want max 4", p["v"])
	}
}

func TestRebalanceSaturatedLowerBound(t *testing.T) {
	// b = 6: the vertex needs at least 7 tasks for finite wait. Starting
	// from min 1 the descent must jump past the pole.
	sm := &SequenceModel{Vertices: []*VertexModel{
		testModel("v", 0.05, 6, 1, 1, 64),
	}}
	p, err := Rebalance(sm, 0.01, nil)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if p["v"] < 7 {
		t.Errorf("parallelism %d leaves utilization >= 1", p["v"])
	}
	if w := waitOf(sm, p); w > 0.01+1e-12 {
		t.Errorf("W=%v exceeds limit", w)
	}
}

func TestRebalanceEmptyModel(t *testing.T) {
	p, err := Rebalance(&SequenceModel{}, 0.01, nil)
	if err != nil || len(p) != 0 {
		t.Errorf("empty model: p=%v err=%v", p, err)
	}
}

func TestRebalanceZeroLoad(t *testing.T) {
	// No traffic (a = 0): everything scales down to the minimum.
	sm := &SequenceModel{Vertices: []*VertexModel{
		testModel("a", 0, 0, 30, 2, 64),
		testModel("b", 0, 0, 40, 1, 64),
	}}
	p, err := Rebalance(sm, 0.001, nil)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if p["a"] != 2 || p["b"] != 1 {
		t.Errorf("zero load must scale to minimum: %v", p)
	}
}

func TestRebalanceStepsVariableVsUnit(t *testing.T) {
	// The variable step size must need far fewer iterations than unit
	// steps on a deep, asymmetric problem (the O(n log n · m) discussion
	// of IV-D): one dominant vertex requiring ~1000 tasks next to two
	// cheap ones.
	sm := &SequenceModel{Vertices: []*VertexModel{
		testModel("a", 50, 0, 1, 1, 5000),
		testModel("b", 0.0001, 0, 1, 1, 8),
		testModel("c", 0.0001, 0, 1, 1, 8),
	}}
	varSteps, ok := RebalanceSteps(sm, 0.050, false)
	if !ok {
		t.Fatal("problem unexpectedly infeasible")
	}
	unitSteps, ok := RebalanceSteps(sm, 0.050, true)
	if !ok {
		t.Fatal("problem unexpectedly infeasible")
	}
	if varSteps*10 > unitSteps {
		t.Errorf("variable steps %d not ≪ unit steps %d", varSteps, unitSteps)
	}
	// Both must produce feasible allocations of comparable cost; this is
	// covered by TestRebalanceMatchesBruteForce for correctness.
}

// TestRebalanceStepsMatchesTrace: RebalanceSteps counts the descent
// Rebalance runs. Over seeded random models the variable-step count is
// the length of Rebalance's audit trail, feasibility is Rebalance not
// failing with ErrInfeasible, and unit steps never need fewer iterations.
func TestRebalanceStepsMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	feasible := 0
	for trial := 0; trial < 500; trial++ {
		sm := randomSequenceModel(rng, 1+rng.Intn(5), 8+rng.Intn(120))
		wLimit := 0.001 + rng.Float64()*0.3

		var trace []RebalanceStep
		_, err := RebalanceTraced(sm, wLimit, nil, &trace)
		steps, ok := RebalanceSteps(sm, wLimit, false)
		if ok != !errors.Is(err, ErrInfeasible) {
			t.Fatalf("trial %d: RebalanceSteps feasible=%v, Rebalance err=%v", trial, ok, err)
		}
		if steps != len(trace) {
			t.Fatalf("trial %d: RebalanceSteps counted %d iterations, the trace has %d", trial, steps, len(trace))
		}
		unit, unitOK := RebalanceSteps(sm, wLimit, true)
		if unitOK != ok || unit < steps {
			t.Fatalf("trial %d: unit steps %d (feasible %v) vs variable %d (feasible %v)", trial, unit, unitOK, steps, ok)
		}
		if ok {
			feasible++
		}
	}
	if feasible < 100 || feasible == 500 {
		t.Errorf("%d of 500 trials feasible: the property needs both outcomes", feasible)
	}
}
