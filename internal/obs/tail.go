package obs

import (
	"fmt"
	"sort"
	"strings"

	"nephelix/internal/metrics"
	"nephelix/internal/metrics/sketch"
)

// TailHop is one hop's contribution to the traced end-to-end latency:
// a vertex (service time) or an edge (channel latency = batch delay +
// transit + queue wait), with both the mean and tail quantiles of its
// per-record latency, and its share of the summed hop latency at the
// mean and at the tail quantile.
type TailHop struct {
	// Kind is "vertex" or "edge"; Name the vertex name or edge key.
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Count int64  `json:"count"`
	// Mean and the quantiles are the hop's own latency distribution in
	// seconds, from the tracer's per-hop quantile sketch.
	Mean float64 `json:"mean_seconds"`
	P50  float64 `json:"p50_seconds"`
	P95  float64 `json:"p95_seconds"`
	P99  float64 `json:"p99_seconds"`
	P999 float64 `json:"p999_seconds"`
	// MeanShare and TailShare are the hop's fraction of the summed hop
	// means / summed hop tail quantiles — the attribution answer to
	// "which hop dominates the mean vs the tail".
	MeanShare float64 `json:"mean_share"`
	TailShare float64 `json:"tail_share"`
}

// TailAttributionReport extends the tracer's mean latency decomposition
// to the tail: per-hop quantiles plus the hop dominating the mean and
// the hop dominating the tail quantile. A hop that dominates p99 but
// not the mean is exactly the bottleneck a mean-based scaler never
// sees.
type TailAttributionReport struct {
	// Quantile is the tail quantile attributed (e.g. 0.99).
	Quantile float64 `json:"quantile"`
	// E2E describes the end-to-end latency of finished spans.
	E2ECount int64   `json:"e2e_count"`
	E2EMean  float64 `json:"e2e_mean_seconds"`
	E2EP50   float64 `json:"e2e_p50_seconds"`
	E2EP95   float64 `json:"e2e_p95_seconds"`
	E2EP99   float64 `json:"e2e_p99_seconds"`
	E2EP999  float64 `json:"e2e_p999_seconds"`
	// Hops is sorted vertices-then-edges, each alphabetically.
	Hops []TailHop `json:"hops"`
	// DominantMean and DominantTail name the hop ("kind name") with the
	// largest mean / tail-quantile contribution.
	DominantMean string `json:"dominant_mean"`
	DominantTail string `json:"dominant_tail"`
}

// TailAttribution builds the tail decomposition at quantile q (clamped
// into (0, 1]; 0.99 when out of range). Deterministically ordered. A
// nil tracer returns a zero report.
func (tr *Tracer) TailAttribution(q float64) TailAttributionReport {
	if !(q > 0 && q <= 1) {
		q = 0.99
	}
	rep := TailAttributionReport{Quantile: q}
	if tr == nil {
		return rep
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()

	rep.E2ECount = tr.e2e.Count()
	rep.E2EMean = tr.e2e.Mean()
	rep.E2EP50 = tr.e2eSk.Quantile(0.5)
	rep.E2EP95 = tr.e2eSk.Quantile(0.95)
	rep.E2EP99 = tr.e2eSk.Quantile(0.99)
	rep.E2EP999 = tr.e2eSk.Quantile(0.999)

	// tails[i] is rep.Hops[i]'s own latency at q — the attributed
	// quantile, which the fixed P50…P999 columns need not contain.
	var tails []float64
	hop := func(kind, name string, w metrics.Welford, sk *sketch.Sketch) {
		rep.Hops = append(rep.Hops, TailHop{
			Kind: kind, Name: name, Count: w.Count(), Mean: w.Mean(),
			P50: sk.Quantile(0.5), P95: sk.Quantile(0.95), P99: sk.Quantile(0.99), P999: sk.Quantile(0.999),
		})
		tails = append(tails, sk.Quantile(q))
	}
	names := make([]string, 0, len(tr.vertices))
	for n := range tr.vertices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hop("vertex", n, tr.vertices[n].service, tr.vertices[n].serviceSk)
	}
	edges := make([]string, 0, len(tr.edges))
	for e := range tr.edges {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	for _, e := range edges {
		hop("edge", e, tr.edges[e].channel, tr.edges[e].channelSk)
	}

	var meanSum, tailSum float64
	for i := range rep.Hops {
		meanSum += rep.Hops[i].Mean
		tailSum += tails[i]
	}
	bestMean, bestTail := -1.0, -1.0
	for i := range rep.Hops {
		h := &rep.Hops[i]
		if meanSum > 0 {
			h.MeanShare = h.Mean / meanSum
		}
		if tailSum > 0 {
			h.TailShare = tails[i] / tailSum
		}
		if h.Mean > bestMean {
			bestMean = h.Mean
			rep.DominantMean = h.Kind + " " + h.Name
		}
		if tails[i] > bestTail {
			bestTail = tails[i]
			rep.DominantTail = h.Kind + " " + h.Name
		}
	}
	return rep
}

// String renders the report for logs: e2e quantiles, one line per hop
// with its mean vs tail shares, and the dominant hops. Deterministic.
func (r TailAttributionReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tail attribution (q=%g): e2e n=%d mean=%.6f p50=%.6f p95=%.6f p99=%.6f p999=%.6f\n",
		r.Quantile, r.E2ECount, r.E2EMean, r.E2EP50, r.E2EP95, r.E2EP99, r.E2EP999)
	for _, h := range r.Hops {
		fmt.Fprintf(&b, "%s %s: n=%d mean=%.6f (%.0f%%) p99=%.6f p999=%.6f tail-share %.0f%%\n",
			h.Kind, h.Name, h.Count, h.Mean, h.MeanShare*100, h.P99, h.P999, h.TailShare*100)
	}
	fmt.Fprintf(&b, "dominant at mean: %s; dominant at q=%g: %s\n",
		r.DominantMean, r.Quantile, r.DominantTail)
	return b.String()
}
