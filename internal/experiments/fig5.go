package experiments

import (
	"fmt"
	"io"
	"math"

	"nephelix/internal/core"
)

// Fig5Options parameterizes the Figure 5 reproduction: the surface of
// Rebalance solution candidates for three job vertices — for each
// (p₁, p₂) the minimal p₃ with W(p₁, p₂, p₃) ≤ Ŵ.
type Fig5Options struct {
	// MaxP bounds the grid (paper plot spans roughly 1..60 per axis).
	MaxP int
	// WaitLimit is Ŵ in seconds.
	WaitLimit float64
}

// Fig5Quick returns the default surface configuration.
func Fig5Quick() Fig5Options { return Fig5Options{}.withDefaults() }

// withDefaults fills unset fields with the default surface.
func (o Fig5Options) withDefaults() Fig5Options {
	if o.MaxP <= 1 {
		o.MaxP = 60
	}
	orDefault(&o.WaitLimit, 0.004)
	return o
}

// Fig5Point is one grid cell of the surface.
type Fig5Point struct {
	P1, P2 int
	// P3 is the minimal feasible parallelism of the third vertex, or -1
	// when no p₃ ≤ MaxP satisfies the limit.
	P3 int
	// Total is p₁+p₂+p₃ (the objective F), -1 when infeasible.
	Total int
}

// Fig5Result is the surface plus shape checks.
type Fig5Result struct {
	Options Fig5Options
	Points  []Fig5Point
	// OptimumTotal is the minimal total parallelism over the surface.
	OptimumTotal int
	// OptimaCount counts grid cells attaining the optimum (the paper
	// notes multiple optima may exist).
	OptimaCount int
	// RebalanceTotal is the total parallelism Algorithm 1 picks for the
	// same problem.
	RebalanceTotal int
	Checks         CheckList
}

// RunFig5 computes the solution-candidate surface analytically from
// three representative fitted vertex models.
func RunFig5(opts Fig5Options) (*Fig5Result, error) {
	opts = opts.withDefaults()
	// Three vertices with distinct load profiles, as in the paper's
	// exemplary plot: a heavy, a medium and a light vertex.
	models := []*core.VertexModel{
		{Name: "jv1", Current: 16, Min: 1, Max: opts.MaxP, A: 0.020, B: 6, E: 1},
		{Name: "jv2", Current: 16, Min: 1, Max: opts.MaxP, A: 0.012, B: 4, E: 1},
		{Name: "jv3", Current: 16, Min: 1, Max: opts.MaxP, A: 0.006, B: 2, E: 1},
	}
	res := &Fig5Result{Options: opts, OptimumTotal: math.MaxInt}

	m3 := models[2]
	for p1 := 1; p1 <= opts.MaxP; p1++ {
		w1 := models[0].Wait(p1)
		for p2 := 1; p2 <= opts.MaxP; p2++ {
			w2 := models[1].Wait(p2)
			pt := Fig5Point{P1: p1, P2: p2, P3: -1, Total: -1}
			rem := opts.WaitLimit - w1 - w2
			if rem > 0 {
				p3 := m3.ParallelismForWait(rem)
				if p3 <= opts.MaxP && m3.Wait(p3) <= rem+1e-15 {
					pt.P3 = p3
					pt.Total = p1 + p2 + p3
					if pt.Total < res.OptimumTotal {
						res.OptimumTotal = pt.Total
						res.OptimaCount = 1
					} else if pt.Total == res.OptimumTotal {
						res.OptimaCount++
					}
				}
			}
			res.Points = append(res.Points, pt)
		}
	}
	if res.OptimumTotal == math.MaxInt {
		return nil, fmt.Errorf("experiments: fig5 surface entirely infeasible")
	}

	sm := &core.SequenceModel{Vertices: models}
	p, err := core.Rebalance(sm, opts.WaitLimit, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5 rebalance: %w", err)
	}
	res.RebalanceTotal = p["jv1"] + p["jv2"] + p["jv3"]

	res.Checks = fig5Checks(res)
	return res, nil
}

// fig5Row is the table row: the surface as one CSV.
func fig5Row(Env) (*Outcome, error) {
	res, err := RunFig5(Fig5Quick())
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("%d cells; optimum F=%d at %d cells", len(res.Points), res.OptimumTotal, res.OptimaCount)
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		printedCSV("fig5_surface.csv", note, func(w io.Writer) {
			fmt.Fprintln(w, "p1,p2,p3_min,total")
			for _, pt := range res.Points {
				fmt.Fprintf(w, "%d,%d,%d,%d\n", pt.P1, pt.P2, pt.P3, pt.Total)
			}
		}),
	}}, nil
}

// fig5Checks verifies the surface's qualitative properties.
func fig5Checks(res *Fig5Result) CheckList {
	var checks CheckList

	// Monotonicity: raising p1 (or p2) never raises the required p3.
	mono := true
	maxP := res.Options.MaxP
	at := func(p1, p2 int) Fig5Point { return res.Points[(p1-1)*maxP+(p2-1)] }
	for p1 := 1; p1 < maxP && mono; p1++ {
		for p2 := 1; p2 < maxP; p2++ {
			cur, right, down := at(p1, p2), at(p1, p2+1), at(p1+1, p2)
			if cur.P3 >= 0 && right.P3 >= 0 && right.P3 > cur.P3 {
				mono = false
				break
			}
			if cur.P3 >= 0 && down.P3 >= 0 && down.P3 > cur.P3 {
				mono = false
				break
			}
		}
	}
	checks.Add("surface monotone decreasing",
		"p3 minimal and decreasing in p1, p2", fmt.Sprintf("monotone=%v", mono), mono)

	// The paper notes multiple optima may exist; with integer grids this
	// is the common case.
	checks.Add("multiple optima possible",
		"multiple optima may exist",
		fmt.Sprintf("%d optima at total %d", res.OptimaCount, res.OptimumTotal),
		res.OptimaCount >= 1)

	// Rebalance lands on the surface optimum.
	checks.Add("rebalance attains surface optimum",
		"gradient descent finds a candidate-surface optimum",
		fmt.Sprintf("rebalance=%d optimum=%d", res.RebalanceTotal, res.OptimumTotal),
		res.RebalanceTotal == res.OptimumTotal)
	return checks
}
