package master_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nephelix/internal/apps"
	"nephelix/internal/core"
	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// captured is the one simulated run both tests replay.
var captured struct {
	once sync.Once
	cfg  sim.Config
	ivs  []master.Interval
}

// capture runs a small sim-tweets-p99-shaped job (TwitterSentiment, both
// constraints at p99, one burst) once and returns its configuration with
// every adjustment interval as OnAdjust saw it.
func capture(t *testing.T) (sim.Config, []master.Interval) {
	t.Helper()
	captured.once.Do(func() { captured.cfg, captured.ivs = runCapture(t) })
	if captured.ivs == nil {
		t.Fatal("capture failed in an earlier test")
	}
	return captured.cfg, captured.ivs
}

func runCapture(t *testing.T) (sim.Config, []master.Interval) {
	o := apps.DefaultTwitterSentimentOptions()
	o.Schedule = &workload.DiurnalSchedule{
		BaseRate: 80, DailyAmplitude: 400, CycleLength: 100, Length: 500, NoiseAmplitude: 0.1, Seed: 5,
		Bursts: []workload.Burst{{Start: 80, Length: 30, ExtraRate: 400, Topic: 3}},
	}
	o.Sources = 2
	o.InitialHT, o.InitialFilter, o.InitialSentiment = 2, 2, 3
	o.MaxElastic, o.WorkerNodes = 40, 40
	o.ConstraintQuantile = 0.99
	cfg, probes, err := apps.BuildTwitterSentiment(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 150 // through the burst at 80 s
	var ivs []master.Interval
	cfg.OnAdjust = func(iv master.Interval) { ivs = append(ivs, iv) }
	s, err := sim.New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return cfg, ivs
}

// replayRuntime answers the loop from a captured interval and logs what
// the loop asks of it. It is open-loop: scaling changes nothing, the next
// interval's parallelism is again the captured one.
type replayRuntime struct {
	iv  master.Interval
	log []string
}

func (r *replayRuntime) Now() float64                    { return r.iv.Now }
func (r *replayRuntime) Parallelism() map[string]int     { return r.iv.Parallelism }
func (r *replayRuntime) Partials() []*qos.PartialSummary { return nil }
func (r *replayRuntime) SetDeadlines(d map[model.EdgeKey]float64) {
	r.log = append(r.log, fmt.Sprintf("%d deadlines %v", r.iv.Round, d))
}
func (r *replayRuntime) Scale(vertex string, delta int) error {
	r.log = append(r.log, fmt.Sprintf("%d scale %s %+d", r.iv.Round, vertex, delta))
	return nil
}

// replay feeds the captured summaries through a fresh loop.
func replay(t *testing.T, cfg sim.Config, ivs []master.Interval, observers ...master.Observer) []string {
	t.Helper()
	l, err := master.New(cfg.Graph, cfg.Constraints, cfg.Scaler, cfg.Elastic, probe.NewProbeSet(), observers...)
	if err != nil {
		t.Fatal(err)
	}
	rt := &replayRuntime{}
	for _, iv := range ivs {
		rt.iv = iv
		if err := l.StepSummary(rt, iv.Parallelism, iv.Summary); err != nil {
			t.Fatalf("round %d: %v", iv.Round, err)
		}
	}
	return rt.log
}

// decisionKey is what a replayed decision must reproduce.
func decisionKey(d *core.Decision) string {
	if d == nil {
		return "none"
	}
	var infeasible []bool
	for _, cd := range d.PerConstraint {
		infeasible = append(infeasible, cd.Infeasible)
	}
	return fmt.Sprint(d.Desired, d.Actions, d.Holds, infeasible)
}

// TestReplayReproducesDecisions (a): the captured run's summaries, pushed
// through a fresh Loop against a runtime that does nothing, yield the same
// decision in every interval — the loop's output is a function of the
// summary sequence alone. (Deadlines have no other input; (b) compares
// them call for call.)
func TestReplayReproducesDecisions(t *testing.T) {
	cfg, ivs := capture(t)
	decisions, acted := 0, 0
	for _, iv := range ivs {
		if iv.Decision != nil {
			decisions++
			if len(iv.Decision.Actions) > 0 {
				acted++
			}
		}
	}
	if len(ivs) < 25 || decisions < 12 || acted < 8 {
		t.Fatalf("capture too quiet to prove anything: %d intervals, %d decisions, %d with actions", len(ivs), decisions, acted)
	}
	t.Logf("%d intervals, %d decisions, %d with actions", len(ivs), decisions, acted)
	i := 0
	replay(t, cfg, ivs, func(got master.Interval) {
		want := ivs[i]
		i++
		if got.Round != want.Round {
			t.Fatalf("replayed round %d, captured %d", got.Round, want.Round)
		}
		if g, w := decisionKey(got.Decision), decisionKey(want.Decision); g != w {
			t.Fatalf("round %d decision:\n got %s\nwant %s", want.Round, g, w)
		}
	})
	if i != len(ivs) {
		t.Errorf("replayed %d of %d intervals", i, len(ivs))
	}
}

// TestObserversCannotChangeTheCallLog (b): the same sequence with no
// observer and with telemetry, SLOs, the decision audit and an OnAdjust
// style hook attached asks the runtime for exactly the same deadlines and
// scaling, call for call. (An Observer returns nothing, so what is left to
// rule out is a side channel; this is the check.)
func TestObserversCannotChangeTheCallLog(t *testing.T) {
	cfg, ivs := capture(t)
	bare := replay(t, cfg, ivs)

	tel, rec := obs.NewTelemetry(0), obs.NewRecorder(0)
	hooked := 0
	observed := replay(t, cfg, ivs,
		obs.IntervalObserver(tel, rec, probe.NewProbeSet(), cfg.Constraints, func() {}),
		func(master.Interval) { hooked++ })

	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("call log changed under observation: %d vs %d calls", len(bare), len(observed))
	}
	if len(bare) < len(ivs) {
		t.Errorf("call log has %d entries for %d intervals", len(bare), len(ivs))
	}
	if hooked != len(ivs) || len(rec.Decisions()) == 0 || tel.Store().Len() == 0 {
		t.Errorf("observers idle: hook ran %d times, %d decisions recorded, %d series",
			hooked, len(rec.Decisions()), tel.Store().Len())
	}
}
