// Package core implements the paper's primary contribution (Section IV):
// a queueing-theoretic latency model for UDF-heavy data flows under
// changing degrees of parallelism, and the reactive scaling strategy
// built on it — Rebalance (Algorithm 1), ResolveBottlenecks (Equation 10)
// and ScaleReactively (Algorithm 2).
//
// Each task is modeled as a GI/G/1 queueing system. Kingman's formula
// approximates the queue waiting time of the average task of job vertex jv:
//
//	W_jv^K = (ρ/μ)/(1−ρ) · (c_A² + c_S²)/2
//
// and an error coefficient e_jv = (l_je − obl_je)/W_jv^K fits the
// approximation to the latest measurements, so that the model reproduces
// the currently observed queue wait at the current parallelism.
package core

import (
	"fmt"
	"math"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// VertexModel is the latency model of one job vertex, derived from the
// global summary. With the coefficients
//
//	a = λ S̄² p (c_A² + c_S²)/2   and   b = λ S̄ p
//
// the fitted queue waiting time as a function of the candidate degree of
// parallelism p* is
//
//	W(p*) = e · a/(p* − b)   for p* > b,   +Inf otherwise,
//
// which is Equation 3 combined with the utilization scaling of Equation 5.
type VertexModel struct {
	// Name is the job vertex name.
	Name string
	// Current is the degree of parallelism the measurements were taken at.
	Current int
	// Min and Max bound the degrees of parallelism the optimizer may pick.
	Min, Max int

	// A and B are the model coefficients defined above, with the error
	// coefficient already folded into A (A = e·a).
	A, B float64

	// E is the error coefficient e_jv (Equation 4) used to build A; kept
	// for diagnostics.
	E float64

	// Lambda, SMean, CA2 and CS2 are the measured Kingman inputs the
	// coefficients were fitted from (per-task arrival rate λ, mean
	// service time s̄, squared coefficients of variation); kept for the
	// decision audit trail.
	Lambda, SMean, CA2, CS2 float64

	// Kappa is the tail coefficient κ ≥ 1 folded into A for percentile
	// constraints: W(p*) then models the TailQuantile-th quantile wait
	// κ·e·a/(p*−b) instead of the mean. 1 for mean constraints.
	Kappa float64
	// TailQuantile is the quantile the model targets (0 = mean).
	TailQuantile float64
	// TailFit records which rung of the fallback ladder produced Kappa:
	// "fit" (fresh window), "held" (sparse window, prior fit reused),
	// "mean" (no fit — κ = 1). Empty for mean constraints.
	TailFit string

	// Notes is the audit trail of input clamps applied while fitting
	// (e.g. a NaN CV from a sparse summary interval replaced by 0), so
	// decision logs show when the model ran on sanitized inputs.
	Notes []string
}

// Wait returns the modeled queue waiting time W(p*) at parallelism pStar.
func (m *VertexModel) Wait(pStar int) float64 {
	p := float64(pStar)
	if p <= m.B {
		return math.Inf(1)
	}
	if m.A <= 0 {
		return 0
	}
	return m.A / (p - m.B)
}

// Marginal returns Δ = W(p+1) − W(p), the (non-positive) decrease in
// queue waiting time from adding one task at parallelism p. When W(p) is
// infinite but W(p+1) is finite, the marginal is −Inf; when both are
// infinite it is also −Inf (the vertex strictly needs more tasks).
func (m *VertexModel) Marginal(p int) float64 {
	wNext := m.Wait(p + 1)
	w := m.Wait(p)
	if math.IsInf(w, 1) {
		return math.Inf(-1)
	}
	return wNext - w
}

// FeasibleMin returns the smallest parallelism with finite modeled wait
// (ρ < 1): ⌊b⌋ + 1.
func (m *VertexModel) FeasibleMin() int {
	return int(math.Floor(m.B)) + 1
}

// StepToMarginal implements P_Δ(i, δ): the smallest parallelism p at
// which the marginal improvement W(p+1) − W(p) has shrunk to δ (δ < 0).
// Solving −a/((p−b)(p−b+1)) = δ for p gives
//
//	p = b − 1/2 + sqrt(1/4 − a/δ),
//
// which equals the paper's closed form ⌈(2b−1)/2 + sqrt(((1−2b)/2)² −
// (a+δ(b²−b))/δ)⌉ after expansion. The result is clamped to keep ρ < 1.
func (m *VertexModel) StepToMarginal(delta float64) int {
	if delta >= 0 || m.A <= 0 {
		return m.FeasibleMin()
	}
	p := m.B - 0.5
	if math.IsInf(delta, -1) {
		// a/δ → 0: the target marginal is unboundedly good; the smallest
		// feasible parallelism suffices.
		p += 0.5
	} else {
		p += math.Sqrt(0.25 - m.A/delta)
	}
	result := int(math.Ceil(p))
	if fm := m.FeasibleMin(); result < fm {
		result = fm
	}
	return result
}

// ParallelismForWait implements P_W(i, w): the smallest parallelism p with
// W(p) ≤ w, i.e. ⌈a/w + b⌉ (clamped to keep ρ < 1). A non-positive budget
// returns Max.
func (m *VertexModel) ParallelismForWait(w float64) int {
	if w <= 0 {
		return m.Max
	}
	if m.A <= 0 {
		return m.FeasibleMin()
	}
	result := int(math.Ceil(m.A/w + m.B))
	if fm := m.FeasibleMin(); result < fm {
		result = fm
	}
	// Ceil can land exactly on W(p) == w with zero slack lost; verify and
	// bump once if floating point rounded the wrong way. The relative
	// epsilon keeps exact-boundary solutions (W(p) == w) from being
	// pushed one step too far.
	if m.Wait(result) > w*(1+1e-9)+1e-15 && result < m.Max {
		result++
	}
	return result
}

// ModelOptions configures how vertex models are fitted from summaries.
type ModelOptions struct {
	// UseErrorCoefficient enables the e_jv fit of Equation 4. Disabling it
	// (e = 1) reproduces the paper's ablation argument: without e the
	// model may recommend a scale-down when a scale-up is needed.
	UseErrorCoefficient bool
	// ErrorCoefficientMax caps e_jv to avoid extreme overscaling when
	// bursts inflate the measured queue latency. The paper leaves e
	// uncapped (and argues the resulting overscaling is useful); a value
	// of 0 means uncapped.
	ErrorCoefficientMax float64

	// TailQuantile, when in (0,1), fits the model to that quantile of
	// the queue wait instead of the mean by inflating A with the vertex's
	// tail coefficient κ from Tail. 0 keeps mean semantics.
	TailQuantile float64
	// Tail supplies per-vertex tail coefficients fitted online from the
	// observed queue-wait quantile sketches. Nil (or no fit yet) degrades
	// to κ = 1, i.e. the Kingman mean model.
	Tail *TailFitter
}

// DefaultModelOptions returns the default configuration: error
// coefficient enabled and capped at 10. The paper leaves e uncapped and
// accepts the resulting overscaling; uncapped, however, a batching-
// induced queue wait measured at near-zero utilization yields e in the
// hundreds (W^K is microseconds there) and slams every Rebalance to
// maximum scale-out. The cap bounds the fit without disabling the
// paper's intended burst overscaling; BenchmarkAblationErrorCoefficient
// explores the uncapped and disabled variants.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{UseErrorCoefficient: true, ErrorCoefficientMax: 10}
}

// BuildVertexModel fits the latency model for one constrained vertex from
// the global summary. seq supplies the vertex's ingoing job edge, whose
// measured channel and output-batch latency define the error coefficient.
func BuildVertexModel(jv *model.JobVertex, seq *model.Sequence, s *qos.Summary, opts ModelOptions) (*VertexModel, error) {
	vs, ok := s.Vertex(jv.Name)
	if !ok {
		return nil, fmt.Errorf("core: no measurements for vertex %q", jv.Name)
	}
	p := vs.Parallelism
	if p <= 0 {
		p = jv.Parallelism
	}
	var notes []string
	// Sparse summary intervals (a handful of records, or a vertex that
	// saw no traffic) can yield NaN or negative moments. A NaN anywhere
	// in A or B poisons every Rebalance marginal comparison — NaN
	// compares false against everything, so the gradient loop stalls or
	// picks arbitrary vertices. Clamp each input with an audit note
	// instead of letting it through.
	sanitize := func(v float64, what string) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			notes = append(notes, fmt.Sprintf("%s %g clamped to 0 (sparse interval)", what, v))
			return 0
		}
		return v
	}
	lambda := sanitize(vs.ArrivalRate(), "arrival rate")
	sMean := sanitize(vs.ServiceTimeMean, "service-time mean")
	caV := sanitize(vs.InterarrivalCV, "interarrival CV")
	csV := sanitize(vs.ServiceTimeCV, "service-time CV")
	ca2 := caV * caV
	cs2 := csV * csV

	a := lambda * sMean * sMean * float64(p) * (ca2 + cs2) / 2
	b := lambda * sMean * float64(p)

	e := 1.0
	if opts.UseErrorCoefficient {
		// e = (l_je − obl_je) / W^K at the current parallelism.
		if key, ok := seq.IngoingEdge(jv.Name); ok {
			if es, ok := s.Edge(key); ok {
				wk := qos.KingmanWait(lambda, sMean, ca2, cs2)
				if wk > 0 && !math.IsInf(wk, 1) {
					e = es.QueueWait() / wk
					// A non-finite or non-positive fit (NaN passes every
					// ordered comparison below false, so test it first)
					// falls back to the uncorrected model.
					if math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
						notes = append(notes, fmt.Sprintf("error coefficient %g reset to 1", e))
						e = 1
					}
					if opts.ErrorCoefficientMax > 0 && e > opts.ErrorCoefficientMax {
						notes = append(notes, fmt.Sprintf("error coefficient %g capped at %g", e, opts.ErrorCoefficientMax))
						e = opts.ErrorCoefficientMax
					}
				}
			}
		}
	}

	kappa, fit := 1.0, ""
	if opts.TailQuantile > 0 && opts.TailQuantile < 1 {
		kappa, fit = opts.Tail.Kappa(jv.Name, opts.TailQuantile)
	}

	return &VertexModel{
		Name:         jv.Name,
		Current:      p,
		Min:          jv.MinParallelism,
		Max:          jv.MaxParallelism,
		A:            kappa * e * a,
		B:            b,
		E:            e,
		Lambda:       lambda,
		SMean:        sMean,
		CA2:          ca2,
		CS2:          cs2,
		Kappa:        kappa,
		TailQuantile: opts.TailQuantile,
		TailFit:      fit,
		Notes:        notes,
	}, nil
}

// SequenceModel is the latency model of a constrained job sequence: the
// vertex models of its elastically relevant vertices, in sequence order.
type SequenceModel struct {
	Vertices []*VertexModel
}

// BuildSequenceModel fits models for all vertices of the constrained
// sequence.
func BuildSequenceModel(g *model.JobGraph, seq *model.Sequence, s *qos.Summary, opts ModelOptions) (*SequenceModel, error) {
	sm := &SequenceModel{}
	for _, name := range seq.Vertices() {
		jv := g.Vertex(name)
		if jv == nil {
			return nil, fmt.Errorf("core: sequence vertex %q not in job graph", name)
		}
		vm, err := BuildVertexModel(jv, seq, s, opts)
		if err != nil {
			return nil, err
		}
		sm.Vertices = append(sm.Vertices, vm)
	}
	return sm, nil
}

// TotalWait returns W_js(p*₁, …, p*ₙ) = Σ W_i(p*ᵢ) for the given candidate
// parallelisms (indexed like Vertices).
func (sm *SequenceModel) TotalWait(p []int) float64 {
	total := 0.0
	for i, vm := range sm.Vertices {
		w := vm.Wait(p[i])
		if math.IsInf(w, 1) {
			return math.Inf(1)
		}
		total += w
	}
	return total
}

// MaxParallelisms returns each vertex's maximum parallelism.
func (sm *SequenceModel) MaxParallelisms() []int {
	out := make([]int, len(sm.Vertices))
	for i, vm := range sm.Vertices {
		out[i] = vm.Max
	}
	return out
}
