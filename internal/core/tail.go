package core

import (
	"math"
	"sort"
	"sync"

	"nephelix/internal/model"
	"nephelix/internal/qos"
)

// TailWindow is one fit window's measured queue-wait distribution at a
// vertex: the observation count, the mean wait, and the q-th quantile
// wait, all taken from the same per-adjustment-interval sketch.
type TailWindow struct {
	// Count is the number of queue-wait observations in the window.
	Count uint64
	// MeanWait is the window's mean queue wait in seconds.
	MeanWait float64
	// TailWait is the window's q-quantile queue wait in seconds.
	TailWait float64
}

// TailFitterConfig tunes the online κ fit.
type TailFitterConfig struct {
	// MinSamples is the smallest window (observation count) accepted as
	// a fresh fit; sparser windows hold the previous κ instead.
	MinSamples uint64
	// KappaMax caps κ so a single pathological window cannot slam every
	// percentile Rebalance to maximum scale-out.
	KappaMax float64
	// Smoothing is the EWMA weight of the newest accepted window in
	// (0, 1]; 1 uses each fresh window verbatim.
	Smoothing float64
}

// DefaultTailFitterConfig returns the default fit parameters: windows of
// at least 16 observations, κ capped at 64, and an EWMA that weights the
// newest window at 0.5.
func DefaultTailFitterConfig() TailFitterConfig {
	return TailFitterConfig{MinSamples: 16, KappaMax: 64, Smoothing: 0.5}
}

type tailKey struct {
	vertex string
	q      float64
}

type tailCell struct {
	kappa    float64 // EWMA of accepted κ_raw = TailWait/MeanWait
	windows  int     // accepted windows folded into kappa
	lastTail float64 // TailWait of the most recent window (accepted or not)
	lastOK   bool    // whether the most recent window met MinSamples
}

// TailFitter fits per-vertex tail coefficients κ_jv(q) = W_q/W̄ online
// from windowed queue-wait sketches. Multiplying a VertexModel's A by κ
// turns every Rebalance closed form (Wait, Marginal, StepToMarginal,
// ParallelismForWait) into its q-quantile counterpart without touching
// the optimizer: W_q(p*) ≈ κ · e·a/(p*−b).
//
// The fallback ladder: a window with ≥ MinSamples observations refreshes
// κ by EWMA; a sparse window holds the previous κ; with no accepted
// window at all κ degrades to 1 and the model is exactly the Kingman
// mean.
type TailFitter struct {
	mu    sync.Mutex
	cfg   TailFitterConfig
	cells map[tailKey]*tailCell
}

// NewTailFitter returns an empty fitter. A (vertex, quantile) cell is
// created by its first Observe, so the target quantiles a caller names
// need no registration.
func NewTailFitter(cfg TailFitterConfig, _ ...float64) *TailFitter {
	if cfg.MinSamples == 0 {
		cfg.MinSamples = DefaultTailFitterConfig().MinSamples
	}
	if cfg.KappaMax <= 1 {
		cfg.KappaMax = DefaultTailFitterConfig().KappaMax
	}
	if cfg.Smoothing <= 0 || cfg.Smoothing > 1 {
		cfg.Smoothing = DefaultTailFitterConfig().Smoothing
	}
	return &TailFitter{cfg: cfg, cells: make(map[tailKey]*tailCell)}
}

// Observe folds one fit window for (vertex, q) into the coefficient.
func (f *TailFitter) Observe(vertex string, q float64, w TailWindow) {
	if f == nil || !(q > 0 && q < 1) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := tailKey{vertex, q}
	c := f.cells[key]
	if c == nil {
		c = &tailCell{}
		f.cells[key] = c
	}
	c.lastTail = w.TailWait
	c.lastOK = w.Count >= f.cfg.MinSamples
	if !c.lastOK || w.MeanWait <= 0 || w.TailWait <= 0 ||
		math.IsNaN(w.MeanWait) || math.IsNaN(w.TailWait) {
		return
	}
	raw := w.TailWait / w.MeanWait
	if raw < 1 {
		// The q-quantile of a window can estimate below its mean only
		// through sketch error; the tail of a wait distribution is never
		// better than the mean.
		raw = 1
	}
	if raw > f.cfg.KappaMax {
		raw = f.cfg.KappaMax
	}
	if c.windows == 0 {
		c.kappa = raw
	} else {
		c.kappa += f.cfg.Smoothing * (raw - c.kappa)
	}
	c.windows++
}

// ObserveSummary closes one fit window: for every vertex of a percentile
// constraint it folds in the q-quantile of the vertex's queue-wait window
// over the mean queue wait of the constraint's ingoing edge — the mean
// BuildVertexModel fits e on, so κ·e·W^K reproduces the measured quantile
// at the current parallelism.
func (f *TailFitter) ObserveSummary(constraints []*model.Constraint, s *qos.Summary) {
	if f == nil {
		return
	}
	for _, c := range constraints {
		if !c.IsPercentile() {
			continue
		}
		for _, name := range c.Sequence.Vertices() {
			win := s.Vertices[name].WaitWindow
			mean := win.Mean()
			if key, ok := c.Sequence.IngoingEdge(name); ok {
				if es, ok := s.Edge(key); ok {
					mean = es.QueueWait()
				}
			}
			f.Observe(name, c.Quantile, TailWindow{
				Count:    win.Count(),
				MeanWait: mean,
				TailWait: win.Quantile(c.Quantile),
			})
		}
	}
}

// Kappa returns the tail coefficient for (vertex, q). A nil fitter,
// unknown vertex, or never-accepted cell degrades to 1, the mean model.
func (f *TailFitter) Kappa(vertex string, q float64) float64 {
	if f == nil {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.cells[tailKey{vertex, q}]
	if c == nil || c.windows == 0 {
		return 1
	}
	return c.kappa
}

// TailHot reports whether the vertex's most recent fit window measured a
// q-quantile queue wait above boundSeconds — a tail violation visible to
// the bottleneck resolver even when the mean is comfortably under the
// bound. Sparse windows are never hot.
func (f *TailFitter) TailHot(vertex string, q, boundSeconds float64) bool {
	if f == nil || boundSeconds <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.cells[tailKey{vertex, q}]
	return c != nil && c.lastOK && c.lastTail > boundSeconds
}

// TailFitSnapshot is one (vertex, quantile) cell of the fitter, for the
// telemetry gauges: κ (1 until a window is accepted) and the tail wait
// of the last fit window.
type TailFitSnapshot struct {
	Vertex   string
	Quantile float64
	Kappa    float64
	LastTail float64
}

// Snapshot returns all cells sorted by vertex then quantile.
func (f *TailFitter) Snapshot() []TailFitSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TailFitSnapshot, 0, len(f.cells))
	for k, c := range f.cells {
		kappa := 1.0
		if c.windows > 0 {
			kappa = c.kappa
		}
		out = append(out, TailFitSnapshot{Vertex: k.vertex, Quantile: k.q, Kappa: kappa, LastTail: c.lastTail})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Vertex != out[j].Vertex {
			return out[i].Vertex < out[j].Vertex
		}
		return out[i].Quantile < out[j].Quantile
	})
	return out
}
