package core

import (
	"math"
	"math/rand"
	"testing"

	"nephelix/internal/qos"
)

// TestBuildVertexModelNaNCVSanitized is the regression test for the
// sparse-interval bug: a summary interval with too few records yields
// NaN coefficients of variation, which used to flow straight into A and
// B and poison every Rebalance marginal comparison (NaN compares false
// everywhere, so the gradient loop could stall or pick arbitrary
// vertices). The model must clamp the inputs, leave an audit note, and
// Rebalance must still produce a finite, sane plan.
func TestBuildVertexModelNaNCVSanitized(t *testing.T) {
	g, seq, s := buildTestSummary(t, 50, 0.01, math.NaN(), math.NaN(), 0.025, 0.005, 8)
	vm, err := BuildVertexModel(g.Vertex("work"), seq, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"A": vm.A, "B": vm.B, "E": vm.E, "CA2": vm.CA2, "CS2": vm.CS2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v; NaN CVs must be clamped to finite coefficients", name, v)
		}
	}
	if len(vm.Notes) == 0 {
		t.Error("clamped inputs must leave an audit-trail note")
	}

	// The full gradient loop on a poisoned-then-sanitized model: every
	// chosen parallelism must be finite and within bounds.
	s.Vertices["sink"] = qos.VertexStats{ServiceTimeMean: 0.0001, InterarrivalMean: 0.001, Parallelism: 1}
	sm, err := BuildSequenceModel(g, seq, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Rebalance(sm, 0.050, nil)
	if err != nil {
		t.Fatalf("Rebalance on sanitized model: %v", err)
	}
	for name, p := range plan {
		jv := g.Vertex(name)
		if p < 1 || (jv != nil && p > jv.MaxParallelism && jv.MaxParallelism > 0) {
			t.Errorf("plan[%s] = %d out of bounds", name, p)
		}
	}
	// A NaN service-time mean must also sanitize, not propagate.
	bad := s.Vertices["work"]
	bad.ServiceTimeMean = math.NaN()
	s.Vertices["work"] = bad
	vm2, err := BuildVertexModel(g.Vertex("work"), seq, s, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(vm2.A) || math.IsNaN(vm2.B) {
		t.Errorf("NaN service mean leaked: A=%v B=%v", vm2.A, vm2.B)
	}
}

// TestTailWaitProperties is the property test for the tail-aware model
// over randomized Kingman inputs and fit windows:
//  1. the tail-inflated wait is ≥ the Kingman mean wait,
//  2. it is monotone non-decreasing in the target quantile,
//  3. it degrades to exactly the mean when the fit window has too few
//     samples.
func TestTailWaitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for trial := 0; trial < 200; trial++ {
		lambda := 10 + 80*rng.Float64()
		svc := 0.001 + 0.009*rng.Float64() // ρ in (0.01, 0.9)
		p := 2 + rng.Intn(16)
		g, seq, s := buildTestSummary(t, lambda, svc, 0.5+rng.Float64(), 0.5+rng.Float64(), 0.02, 0.002, p)

		fit := NewTailFitter(DefaultTailFitterConfig(), quantiles...)
		// One fit window whose measured quantile wait grows with q, as
		// any real quantile function does.
		meanWait := 0.001 + 0.02*rng.Float64()
		tail := meanWait
		for _, q := range quantiles {
			tail += meanWait * rng.Float64() * 3 // quantile functions are non-decreasing
			fit.Observe("work", q, TailWindow{Count: 64, MeanWait: meanWait, TailWait: tail})
		}

		base := DefaultModelOptions()
		mean, err := BuildVertexModel(g.Vertex("work"), seq, s, base)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for _, q := range quantiles {
			opts := base
			opts.TailQuantile = q
			opts.Tail = fit
			vm, err := BuildVertexModel(g.Vertex("work"), seq, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if vm.TailFit != TailFitFresh {
				t.Fatalf("q=%v: fit state %q, want %q", q, vm.TailFit, TailFitFresh)
			}
			for pp := vm.FeasibleMin(); pp <= vm.Max; pp += 7 {
				wTail, wMean := vm.Wait(pp), mean.Wait(pp)
				if wTail < wMean {
					t.Fatalf("trial %d q=%v p=%d: tail wait %v < mean wait %v", trial, q, pp, wTail, wMean)
				}
			}
			if vm.Kappa < prev {
				t.Fatalf("trial %d: κ(%v)=%v not monotone in q (prev %v)", trial, q, vm.Kappa, prev)
			}
			prev = vm.Kappa
		}

		// Sparse window: fewer samples than MinSamples must degrade to
		// exactly the mean model.
		sparse := NewTailFitter(DefaultTailFitterConfig(), 0.99)
		sparse.Observe("work", 0.99, TailWindow{Count: 3, MeanWait: meanWait, TailWait: meanWait * 40})
		opts := base
		opts.TailQuantile = 0.99
		opts.Tail = sparse
		vm, err := BuildVertexModel(g.Vertex("work"), seq, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if vm.Kappa != 1 || vm.TailFit != TailFitMean {
			t.Fatalf("sparse fit must degrade to mean: κ=%v state=%q", vm.Kappa, vm.TailFit)
		}
		if vm.Wait(p+1) != mean.Wait(p+1) {
			t.Fatalf("sparse fit wait %v != mean wait %v", vm.Wait(p+1), mean.Wait(p+1))
		}
	}
}

// TestTailFitterFallbackLadder walks the three rungs: fresh fit, held
// prior, and mean degradation, plus the κ clamps at both ends.
func TestTailFitterFallbackLadder(t *testing.T) {
	f := NewTailFitter(TailFitterConfig{MinSamples: 10, KappaMax: 8, Smoothing: 1}, 0.99)

	if k, st := f.Kappa("v", 0.99); k != 1 || st != TailFitMean {
		t.Fatalf("no fit: got (%v, %q), want (1, mean)", k, st)
	}
	f.Observe("v", 0.99, TailWindow{Count: 100, MeanWait: 0.010, TailWait: 0.040})
	if k, st := f.Kappa("v", 0.99); k != 4 || st != TailFitFresh {
		t.Fatalf("fresh fit: got (%v, %q), want (4, fit)", k, st)
	}
	f.Observe("v", 0.99, TailWindow{Count: 3, MeanWait: 0.010, TailWait: 0.100})
	if k, st := f.Kappa("v", 0.99); k != 4 || st != TailFitHeld {
		t.Fatalf("sparse window must hold prior: got (%v, %q), want (4, held)", k, st)
	}
	// Sketch error can put the window quantile below the mean; κ floors
	// at 1 (the tail is never better than the mean).
	f.Observe("v", 0.99, TailWindow{Count: 100, MeanWait: 0.010, TailWait: 0.005})
	if k, _ := f.Kappa("v", 0.99); k != 1 {
		t.Fatalf("κ below 1 must floor: got %v", k)
	}
	// A pathological window caps at KappaMax.
	f.Observe("v", 0.99, TailWindow{Count: 100, MeanWait: 0.001, TailWait: 10})
	if k, _ := f.Kappa("v", 0.99); k != 8 {
		t.Fatalf("κ must cap at KappaMax: got %v", k)
	}
	// A nil fitter is always the mean model.
	var nilF *TailFitter
	if k, st := nilF.Kappa("v", 0.99); k != 1 || st != TailFitMean {
		t.Fatalf("nil fitter: got (%v, %q)", k, st)
	}
	nilF.Observe("v", 0.99, TailWindow{Count: 100, MeanWait: 1, TailWait: 2}) // must not panic
}

// TestResolveBottlenecksTailHot: a vertex comfortably below ρ_max whose
// measured p99 queue wait violates the bound still gets the Equation 10
// scale-up through the tail-hot trigger.
func TestResolveBottlenecksTailHot(t *testing.T) {
	// ρ = 50·0.01 = 0.5, far below ρ_max = 0.95: the mean trigger is blind.
	g, seq, s := buildTestSummary(t, 50, 0.01, 1, 1, 0.02, 0.002, 8)
	pol := DefaultBottleneckPolicy()
	if pol.HasBottleneck(g, seq, s) {
		t.Fatal("precondition: no utilization bottleneck expected")
	}
	plan, unresolvable := pol.ResolveBottlenecks(g, seq, s, map[string]bool{"work": true})
	if len(unresolvable) != 0 {
		t.Fatalf("unexpected unresolvable vertices: %v", unresolvable)
	}
	if plan["work"] <= 8 {
		t.Fatalf("tail-hot vertex must scale out: got %d, had 8", plan["work"])
	}
	// Without the tail-hot set nothing changes.
	plan, _ = pol.ResolveBottlenecks(g, seq, s, nil)
	if plan["work"] != 8 {
		t.Fatalf("mean-only resolution must keep 8, got %d", plan["work"])
	}
}
