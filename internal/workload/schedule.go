// Package workload provides the load generators of the paper's
// evaluation: the step-wise rate schedule of the PrimeTester job
// (Section III-A), a diurnal tweet-rate trace with bursts that substitutes
// the 69 GB Twitter dataset (Section V-B), a deterministic Miller–Rabin
// probable-prime tester, and a synthetic tweet generator with a lexicon
// sentiment scorer.
package workload

import (
	"fmt"
	"math"
)

// Schedule yields a target total emission rate (data items per second
// across all source tasks) as a function of job time.
type Schedule interface {
	// Rate returns the attempted emission rate at time t (seconds).
	Rate(t float64) float64
	// Duration returns the schedule's total length in seconds.
	Duration() float64
}

// StepSchedule is the PrimeTester job's load profile (Section III-A):
// a warm-up step at a low baseline rate, step-wise increasing rates, a
// plateau at the peak, and a symmetric decrement back to the baseline.
// Every step lasts StepDuration and holds a constant rate.
type StepSchedule struct {
	// WarmUpRate is the baseline rate (items/s, summed over all sources).
	WarmUpRate float64
	// StepDelta is the rate increase per increment step.
	StepDelta float64
	// IncrementSteps is the number of increment (and decrement) steps.
	IncrementSteps int
	// StepDuration is the length of each step in seconds (60 s in the
	// paper).
	StepDuration float64
}

var _ Schedule = (*StepSchedule)(nil)

// Validate checks the schedule parameters.
func (s *StepSchedule) Validate() error {
	if s.WarmUpRate <= 0 || s.StepDelta <= 0 || s.IncrementSteps <= 0 || s.StepDuration <= 0 {
		return fmt.Errorf("workload: invalid step schedule %+v", s)
	}
	return nil
}

// PeakRate returns the plateau rate.
func (s *StepSchedule) PeakRate() float64 {
	return s.WarmUpRate + float64(s.IncrementSteps)*s.StepDelta
}

// Duration returns the total schedule length: warm-up + increments +
// plateau + decrements.
func (s *StepSchedule) Duration() float64 {
	return float64(2*s.IncrementSteps+2) * s.StepDuration
}

// Rate returns the attempted rate at time t. Past the end (and before 0)
// the rate is 0.
func (s *StepSchedule) Rate(t float64) float64 {
	if t < 0 {
		return 0
	}
	step := int(math.Floor(t / s.StepDuration))
	n := s.IncrementSteps
	switch {
	case step == 0:
		return s.WarmUpRate
	case step <= n:
		return s.WarmUpRate + float64(step)*s.StepDelta
	case step == n+1:
		return s.PeakRate()
	case step <= 2*n+1:
		// Decrement: mirrors the increment steps downward.
		k := step - (n + 1) // 1..n
		return s.WarmUpRate + float64(n-k)*s.StepDelta
	default:
		return 0
	}
}

// ConstantSchedule holds one fixed rate for a fixed duration. It is used
// by validation tests and the quickstart example.
type ConstantSchedule struct {
	RatePerSecond float64
	Length        float64
}

var _ Schedule = (*ConstantSchedule)(nil)

// Rate returns the constant rate within [0, Length), 0 outside.
func (c *ConstantSchedule) Rate(t float64) float64 {
	if t < 0 || t >= c.Length {
		return 0
	}
	return c.RatePerSecond
}

// Duration returns the schedule length.
func (c *ConstantSchedule) Duration() float64 { return c.Length }

// Burst is a transient extra load on top of a base schedule, optionally
// concentrated on a single topic (the TwitterSentiment evaluation's peak
// "seemed to affect one or very few topics").
type Burst struct {
	// Start and Length delimit the burst in seconds.
	Start  float64
	Length float64
	// ExtraRate is the additional rate at the burst's center; the burst
	// ramps in and out with a raised-cosine envelope.
	ExtraRate float64
	// Topic is the topic id the burst's tweets concentrate on (used by
	// the tweet generator; ignored by plain schedules).
	Topic int
}

// envelope returns the raised-cosine weight of the burst at time t.
func (b *Burst) envelope(t float64) float64 {
	if t < b.Start || t > b.Start+b.Length || b.Length <= 0 {
		return 0
	}
	x := (t - b.Start) / b.Length
	return 0.5 - 0.5*math.Cos(2*math.Pi*x)
}

// DiurnalSchedule models the replayed two-week Twitter trace: a base
// rate, a raised-cosine daily cycle compressed to CycleLength seconds,
// deterministic pseudo-noise, and a list of bursts. The paper replays 14
// day cycles within a 100 minute experiment.
type DiurnalSchedule struct {
	// BaseRate is the nightly minimum rate (items/s).
	BaseRate float64
	// DailyAmplitude is the additional rate at the daily peak.
	DailyAmplitude float64
	// CycleLength is the length of one compressed "day" in seconds.
	CycleLength float64
	// Length is the schedule duration in seconds.
	Length float64
	// NoiseAmplitude scales the deterministic pseudo-noise (fraction of
	// the current rate, e.g. 0.1 for ±10%).
	NoiseAmplitude float64
	// Seed makes the pseudo-noise reproducible.
	Seed int64
	// Bursts are transient load spikes.
	Bursts []Burst
}

var _ Schedule = (*DiurnalSchedule)(nil)

// Validate checks the schedule parameters.
func (d *DiurnalSchedule) Validate() error {
	if d.BaseRate <= 0 || d.CycleLength <= 0 || d.Length <= 0 {
		return fmt.Errorf("workload: invalid diurnal schedule %+v", d)
	}
	return nil
}

// Duration returns the schedule length.
func (d *DiurnalSchedule) Duration() float64 { return d.Length }

// Rate returns the trace rate at time t: daily cycle + noise + bursts,
// floored at a tenth of the base rate.
func (d *DiurnalSchedule) Rate(t float64) float64 {
	if t < 0 || t >= d.Length {
		return 0
	}
	phase := 2 * math.Pi * t / d.CycleLength
	daily := 0.5 - 0.5*math.Cos(phase) // 0 at "night", 1 at "noon"
	rate := d.BaseRate + d.DailyAmplitude*daily
	if d.NoiseAmplitude > 0 {
		rate *= 1 + d.NoiseAmplitude*d.noise(t)
	}
	for i := range d.Bursts {
		rate += d.Bursts[i].ExtraRate * d.Bursts[i].envelope(t)
	}
	if floor := d.BaseRate / 10; rate < floor {
		rate = floor
	}
	return rate
}

// BurstWeight returns the fraction of the rate at time t contributed by
// the given burst, so the tweet generator can attribute burst traffic to
// the burst's topic.
func (d *DiurnalSchedule) BurstWeight(t float64) (topic int, weight float64) {
	return d.BurstWeightOf(t, d.Rate(t))
}

// BurstWeightOf is BurstWeight for a caller that already holds
// total = Rate(t).
func (d *DiurnalSchedule) BurstWeightOf(t, total float64) (topic int, weight float64) {
	if total <= 0 {
		return 0, 0
	}
	best := 0.0
	for i := range d.Bursts {
		if w := d.Bursts[i].ExtraRate * d.Bursts[i].envelope(t); w > best {
			best = w
			topic = d.Bursts[i].Topic
		}
	}
	return topic, best / total
}

// noise returns a smooth deterministic pseudo-noise value in [−1, 1],
// built from integer-hashed lattice values with cosine interpolation
// (value noise). Period ≈ 11 s per lattice cell.
func (d *DiurnalSchedule) noise(t float64) float64 {
	const cell = 11.0
	x := t / cell
	i := int64(math.Floor(x))
	frac := x - math.Floor(x)
	a := hashUnit(i, d.Seed)
	b := hashUnit(i+1, d.Seed)
	// Cosine interpolation keeps the noise C¹-smooth enough.
	w := 0.5 - 0.5*math.Cos(math.Pi*frac)
	return a*(1-w) + b*w
}

// hashUnit maps (i, seed) to a deterministic value in [−1, 1].
func hashUnit(i, seed int64) float64 {
	x := uint64(i)*0x9e3779b97f4a7c15 ^ uint64(seed)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x)/float64(math.MaxUint64)*2 - 1
}
