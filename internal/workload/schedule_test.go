package workload

import (
	"math"
	"testing"
)

func stepSched() *StepSchedule {
	return &StepSchedule{
		WarmUpRate:     10000,
		StepDelta:      10000,
		IncrementSteps: 4,
		StepDuration:   60,
	}
}

func TestStepScheduleShape(t *testing.T) {
	s := stepSched()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.PeakRate(); got != 50000 {
		t.Errorf("PeakRate: got %v, want 50000", got)
	}
	if got := s.Duration(); got != 600 { // (2·4+2)·60
		t.Errorf("Duration: got %v, want 600", got)
	}
	tests := []struct {
		t    float64
		rate float64
	}{
		{t: 0, rate: 10000},
		{t: 59.9, rate: 10000},
		{t: 60, rate: 20000}, // rate doubles at warm-up→increment
		{t: 120, rate: 30000},
		{t: 240, rate: 50000},
		{t: 300, rate: 50000},
		{t: 360, rate: 40000},
		{t: 540, rate: 10000}, // back at warm-up rate
		{t: 600, rate: 0},
		{t: -1, rate: 0},
	}
	for _, tt := range tests {
		if got := s.Rate(tt.t); got != tt.rate {
			t.Errorf("Rate(%v): got %v, want %v", tt.t, got, tt.rate)
		}
	}
}

func TestStepScheduleSymmetry(t *testing.T) {
	s := stepSched()
	// The decrement mirrors the increment: last decrement step rate equals
	// the warm-up rate.
	last := s.Duration() - s.StepDuration/2
	if got := s.Rate(last); got != s.WarmUpRate {
		t.Errorf("final decrement rate: got %v, want warm-up %v", got, s.WarmUpRate)
	}
}

func TestStepScheduleValidate(t *testing.T) {
	bad := &StepSchedule{WarmUpRate: 0, StepDelta: 1, IncrementSteps: 1, StepDuration: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero warm-up rate accepted")
	}
}

func TestConstantSchedule(t *testing.T) {
	c := &ConstantSchedule{RatePerSecond: 100, Length: 10}
	if c.Rate(5) != 100 || c.Rate(-1) != 0 || c.Rate(10) != 0 {
		t.Error("constant schedule bounds wrong")
	}
	if c.Duration() != 10 {
		t.Error("duration wrong")
	}
}

func TestDiurnalScheduleCycle(t *testing.T) {
	d := &DiurnalSchedule{
		BaseRate:       1000,
		DailyAmplitude: 4000,
		CycleLength:    400,
		Length:         2000,
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Night (cycle start): base rate. Noon (half cycle): base + amplitude.
	if got := d.Rate(0); !almostEqual(got, 1000, 1e-9) {
		t.Errorf("night rate: got %v, want 1000", got)
	}
	if got := d.Rate(200); !almostEqual(got, 5000, 1e-9) {
		t.Errorf("noon rate: got %v, want 5000", got)
	}
	// Periodicity.
	if !almostEqual(d.Rate(200), d.Rate(600), 1e-9) {
		t.Error("daily cycle not periodic")
	}
	if d.Rate(-1) != 0 || d.Rate(2000) != 0 {
		t.Error("rates outside schedule must be 0")
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDiurnalScheduleBurst(t *testing.T) {
	d := &DiurnalSchedule{
		BaseRate:       1000,
		DailyAmplitude: 0,
		CycleLength:    400,
		Length:         2000,
		Bursts:         []Burst{{Start: 1000, Length: 100, ExtraRate: 3000, Topic: 7}},
	}
	// Burst center adds the full extra rate.
	if got := d.Rate(1050); !almostEqual(got, 4000, 1e-9) {
		t.Errorf("burst center rate: got %v, want 4000", got)
	}
	// Outside the burst nothing changes.
	if got := d.Rate(900); !almostEqual(got, 1000, 1e-9) {
		t.Errorf("pre-burst rate: got %v, want 1000", got)
	}
	topic, w := d.BurstWeight(1050)
	if topic != 7 || !almostEqual(w, 0.75, 1e-9) {
		t.Errorf("BurstWeight: topic=%d w=%v, want 7/0.75", topic, w)
	}
	if _, w := d.BurstWeight(900); w != 0 {
		t.Errorf("BurstWeight outside burst: got %v, want 0", w)
	}
}

// TestBurstWeightOfReusesTheRate: handed Rate(t), BurstWeightOf is
// BurstWeight bit for bit — overlapping bursts, noise and the schedule's
// ends included — so a source that already holds the emission's rate may
// pass it on.
func TestBurstWeightOfReusesTheRate(t *testing.T) {
	d := &DiurnalSchedule{
		BaseRate: 900, DailyAmplitude: 3600, CycleLength: 430, Length: 3000, NoiseAmplitude: 0.12, Seed: 42,
		Bursts: []Burst{
			{Start: 900, Length: 120, ExtraRate: 1200, Topic: 17},
			{Start: 960, Length: 300, ExtraRate: 2600, Topic: 3},
			{Start: 2990, Length: 50, ExtraRate: 500, Topic: 8},
		},
	}
	for x := -5.0; x < 3010; x += 0.37 {
		topic, w := d.BurstWeight(x)
		if gt, gw := d.BurstWeightOf(x, d.Rate(x)); gt != topic || gw != w {
			t.Fatalf("t=%v: BurstWeightOf = (%d, %v), BurstWeight = (%d, %v)", x, gt, gw, topic, w)
		}
	}
}

func TestDiurnalScheduleNoiseDeterministicAndBounded(t *testing.T) {
	d1 := &DiurnalSchedule{BaseRate: 1000, DailyAmplitude: 1000, CycleLength: 400, Length: 4000, NoiseAmplitude: 0.1, Seed: 13}
	d2 := &DiurnalSchedule{BaseRate: 1000, DailyAmplitude: 1000, CycleLength: 400, Length: 4000, NoiseAmplitude: 0.1, Seed: 13}
	d3 := &DiurnalSchedule{BaseRate: 1000, DailyAmplitude: 1000, CycleLength: 400, Length: 4000, NoiseAmplitude: 0.1, Seed: 14}
	same, diff := true, false
	for x := 0.0; x < 4000; x += 17 {
		if d1.Rate(x) != d2.Rate(x) {
			same = false
		}
		if d1.Rate(x) != d3.Rate(x) {
			diff = true
		}
		clean := (&DiurnalSchedule{BaseRate: 1000, DailyAmplitude: 1000, CycleLength: 400, Length: 4000}).Rate(x)
		if r := d1.Rate(x); math.Abs(r-clean) > 0.1*clean+1e-9 {
			t.Fatalf("noise exceeds amplitude at t=%v: %v vs %v", x, r, clean)
		}
	}
	if !same {
		t.Error("same seed must give identical rates")
	}
	if !diff {
		t.Error("different seeds must change the trace")
	}
}

func TestDiurnalRateFloor(t *testing.T) {
	d := &DiurnalSchedule{BaseRate: 1000, DailyAmplitude: 0, CycleLength: 400, Length: 2000, NoiseAmplitude: 5, Seed: 1}
	for x := 0.0; x < 2000; x += 13 {
		if d.Rate(x) < 100 {
			t.Fatalf("rate below floor at t=%v: %v", x, d.Rate(x))
		}
	}
}
