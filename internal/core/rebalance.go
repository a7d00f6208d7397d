package core

import (
	"errors"
	"math"
)

// ErrInfeasible is returned by Rebalance when even the maximum scale-out
// cannot push the modeled queue waiting time below the limit. The
// accompanying result is the best effort (maximum parallelism); per the
// paper the user must be informed and provide more resources.
var ErrInfeasible = errors.New("core: queue wait limit unreachable at maximum scale-out")

// RebalanceStep is one audit record of a Rebalance gradient-descent
// iteration: the steepest vertex grew From→To. Steepest and RunnerUp are
// the two best marginal gains d1, d2; PDelta is the P_Δ target (step to
// the runner-up's marginal) and PW the P_W cap (exact budget spend) that
// bounded the jump. PDelta is 0 in the final round (no runner-up, the
// budget is spent exactly via PW).
type RebalanceStep struct {
	Vertex   string
	From, To int
	Steepest float64
	RunnerUp float64
	PDelta   int
	PW       int
}

// Rebalance implements Algorithm 1: choose new degrees of parallelism for
// the sequence's vertices so that the total parallelism Σ pᵢ is minimized
// subject to W_js(p₁, …, pₙ) ≤ wLimit and pᵢ ∈ [max(minᵢ, pMin[name]),
// maxᵢ]. It runs a gradient descent with variable step size: in each
// round the vertex with the steepest marginal decrease in queue waiting
// time is scaled up until its marginal gain drops to the runner-up's
// (P_Δ); the final round spends the remaining budget exactly (P_W).
//
// pMin carries minimum parallelisms imposed by earlier Rebalance calls on
// overlapping constraints (Algorithm 2); it may be nil.
//
// The returned map always contains an entry for every sequence vertex.
func Rebalance(sm *SequenceModel, wLimit float64, pMin map[string]int) (map[string]int, error) {
	return RebalanceTraced(sm, wLimit, pMin, nil)
}

// RebalanceTraced is Rebalance with an optional audit trail: when trace
// is non-nil, one RebalanceStep per descent iteration is appended to it.
// An infeasible run fails the up-front feasibility test and records no
// steps.
func RebalanceTraced(sm *SequenceModel, wLimit float64, pMin map[string]int, trace *[]RebalanceStep) (map[string]int, error) {
	return rebalance(sm, wLimit, pMin, trace, false)
}

// RebalanceSteps reports how many descent iterations Rebalance needs for a
// given problem, or with unit (+1) steps when unitSteps is true. It exists
// for the step-size ablation benchmark that backs the paper's
// O(n log n · m) complexity discussion.
func RebalanceSteps(sm *SequenceModel, wLimit float64, unitSteps bool) (steps int, feasible bool) {
	var trace []RebalanceStep
	_, err := rebalance(sm, wLimit, nil, &trace, unitSteps)
	return len(trace), !errors.Is(err, ErrInfeasible)
}

// rebalance is Algorithm 1's descent; unitSteps replaces the variable
// step with +1 for the ablation.
func rebalance(sm *SequenceModel, wLimit float64, pMin map[string]int, trace *[]RebalanceStep, unitSteps bool) (map[string]int, error) {
	n := len(sm.Vertices)
	result := make(map[string]int, n)
	if n == 0 {
		return result, nil
	}

	// Feasibility test at maximum scale-out (Algorithm 1, line 2).
	pMax := sm.MaxParallelisms()
	if w := sm.TotalWait(pMax); w > wLimit {
		for i, vm := range sm.Vertices {
			result[vm.Name] = pMax[i]
		}
		return result, ErrInfeasible
	}

	// Start from the lower bounds (line 3).
	p := make([]int, n)
	for i, vm := range sm.Vertices {
		p[i] = vm.Min
		if pm, ok := pMin[vm.Name]; ok && pm > p[i] {
			p[i] = pm
		}
		if p[i] > vm.Max {
			p[i] = vm.Max
		}
	}

	for sm.TotalWait(p) > wLimit {
		// C = {i | pᵢ < pᵢ^max}: vertices that can still grow.
		var candidates []int
		for i, vm := range sm.Vertices {
			if p[i] < vm.Max {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			// Cannot happen after a successful feasibility test, but guard
			// against floating-point drift.
			break
		}

		// Pick c1 with the steepest (most negative) marginal and c2 with
		// the second steepest; ties resolve to the smallest index.
		c1, c2 := -1, -1
		d1, d2 := math.Inf(1), math.Inf(1)
		for _, i := range candidates {
			d := sm.Vertices[i].Marginal(p[i])
			if d < d1 {
				c2, d2 = c1, d1
				c1, d1 = i, d
			} else if d < d2 {
				c2, d2 = i, d
			}
		}

		vm := sm.Vertices[c1]
		// The remaining budget if only c1 grows: reaching W_c1 ≤ wBudget
		// makes the whole sequence feasible.
		wBudget := wLimit - sm.TotalWait(p) + vm.Wait(p[c1])
		var target, pDelta, pW int
		switch {
		case unitSteps:
			target = p[c1] + 1
		case c2 >= 0:
			// Scale c1 until its marginal gain matches the runner-up's
			// current gain; next round the runner-up takes over. The jump
			// is capped by P_W so it never overshoots the point where the
			// queue-wait limit is already met (keeping the result on the
			// minimal-candidate surface of Figure 5).
			pDelta = vm.StepToMarginal(d2)
			pW = vm.ParallelismForWait(wBudget)
			target = pDelta
			if pW < target {
				target = pW
			}
		default:
			// Last growable vertex: spend the remaining budget exactly.
			pW = vm.ParallelismForWait(wBudget)
			target = pW
		}
		if target <= p[c1] {
			target = p[c1] + 1 // progress guard for marginal ties
		}
		if target > vm.Max {
			target = vm.Max
		}
		if trace != nil {
			*trace = append(*trace, RebalanceStep{
				Vertex: vm.Name, From: p[c1], To: target,
				Steepest: d1, RunnerUp: d2, PDelta: pDelta, PW: pW,
			})
		}
		p[c1] = target
	}

	for i, vm := range sm.Vertices {
		result[vm.Name] = p[i]
	}
	return result, nil
}
