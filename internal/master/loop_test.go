package master

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nephelix/internal/core"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/qos"
)

// fakeRuntime is a Runtime that only keeps a parallelism vector and logs
// what the loop asks of it.
type fakeRuntime struct {
	now      float64
	par      map[string]int
	partials []*qos.PartialSummary
	log      []string
}

func (f *fakeRuntime) Now() float64 { return f.now }

func (f *fakeRuntime) Parallelism() map[string]int {
	par := make(map[string]int, len(f.par))
	for v, p := range f.par {
		par[v] = p
	}
	return par
}

func (f *fakeRuntime) Partials() []*qos.PartialSummary { return f.partials }

func (f *fakeRuntime) SetDeadlines(d map[model.EdgeKey]float64) {
	f.log = append(f.log, fmt.Sprint("deadlines ", d)) // fmt sorts map keys
}

func (f *fakeRuntime) Scale(vertex string, delta int) error {
	if _, ok := f.par[vertex]; !ok {
		return fmt.Errorf("unknown vertex %q", vertex)
	}
	f.log = append(f.log, fmt.Sprintf("scale %s %+d", vertex, delta))
	f.par[vertex] += delta
	return nil
}

// chain builds src -> names... -> sink with every named vertex elastic in
// [1, max] at parallelism p, and the constraint over the whole chain.
func chain(t *testing.T, p, max int, names ...string) (*model.JobGraph, *model.Constraint) {
	t.Helper()
	g := model.NewJobGraph()
	all := append(append([]string{"src"}, names...), "sink")
	for _, n := range all {
		v := model.JobVertex{Name: n, Parallelism: 1}
		if n != "src" && n != "sink" {
			v = model.JobVertex{Name: n, Parallelism: p, MinParallelism: 1, MaxParallelism: max}
		}
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	var elems []string
	for i := 0; i+1 < len(all); i++ {
		if err := g.AddEdge(all[i], all[i+1], model.PatternRoundRobin); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			elems = append(elems, all[i])
		}
		elems = append(elems, all[i]+"->"+all[i+1])
	}
	seq, err := model.ParseSequence(g, elems...)
	if err != nil {
		t.Fatal(err)
	}
	return g, &model.Constraint{Name: "c", Sequence: seq, Bound: 20 * time.Millisecond, Window: 10 * time.Second}
}

// loaded is a summary covering the constraint with every sequence vertex
// at per-task utilization rho (service time 10 ms).
func loaded(c *model.Constraint, p int, rho float64) *qos.Summary {
	s := qos.NewSummary()
	for _, name := range c.Sequence.Vertices() {
		s.Vertices[name] = qos.VertexStats{
			TaskLatency: 0.01, ServiceTimeMean: 0.01, ServiceTimeCV: 0.5,
			InterarrivalMean: 0.01 / rho, InterarrivalCV: 1,
			Parallelism: p, FreshTasks: p,
		}
	}
	for _, ek := range c.Sequence.Edges() {
		s.Edges[ek] = qos.EdgeStats{ChannelLatency: 0.002, OutputBatchLatency: 0.001}
	}
	return s
}

func newLoop(t *testing.T, g *model.JobGraph, cs []*model.Constraint, elastic bool, obs ...Observer) *Loop {
	t.Helper()
	cfg := core.DefaultScalerConfig()
	cfg.InactivityIntervals = 0
	l, err := New(g, cs, cfg, elastic, probe.NewProbeSet(), obs...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func scales(log []string) []string {
	var out []string
	for _, e := range log {
		if strings.HasPrefix(e, "scale ") {
			out = append(out, e)
		}
	}
	return out
}

// TestActionsAppliedInDecisionOrder (c): three overloaded vertices are
// scaled in Decision.Actions order — sorted by vertex — on every run, and
// the deadlines were published before any of them.
func TestActionsAppliedInDecisionOrder(t *testing.T) {
	g, c := chain(t, 4, 64, "zeta", "alpha", "mid")
	for run := 0; run < 20; run++ {
		var seen *core.Decision
		l := newLoop(t, g, []*model.Constraint{c}, true, func(iv Interval) { seen = iv.Decision })
		rt := &fakeRuntime{par: map[string]int{"src": 1, "zeta": 4, "alpha": 4, "mid": 4, "sink": 1}}
		if err := l.step(rt, rt.Parallelism(), loaded(c, 4, 1.2)); err != nil {
			t.Fatal(err)
		}
		if seen == nil || len(seen.Actions) != 3 {
			t.Fatalf("decision = %+v, want three actions", seen)
		}
		var want []string
		for _, a := range seen.Actions {
			want = append(want, fmt.Sprintf("scale %s %+d", a.Vertex, a.Delta()))
		}
		if want[0][:11] != "scale alpha" || want[2][:10] != "scale zeta" {
			t.Fatalf("actions not sorted by vertex: %v", want)
		}
		if got := scales(rt.log); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Scale calls %v, want %v", run, got, want)
		}
		if !strings.HasPrefix(rt.log[0], "deadlines ") {
			t.Fatalf("first runtime call = %q, want the deadlines", rt.log[0])
		}
	}
}

// TestHoldsInVertexOrder: when the scale-down clamp holds several vertices
// in one decision, the audit trail lists them by vertex, not in map order
// (the replay test found the latter).
func TestHoldsInVertexOrder(t *testing.T) {
	g, c := chain(t, 64, 64, "zeta", "alpha", "mid")
	c.Bound = 200 * time.Millisecond // three 10 ms services fit
	for run := 0; run < 20; run++ {
		var holds []string
		l := newLoop(t, g, []*model.Constraint{c}, true, func(iv Interval) {
			for _, h := range iv.Decision.Holds {
				holds = append(holds, h.Vertex+" "+h.Reason)
			}
		})
		rt := &fakeRuntime{par: map[string]int{"zeta": 64, "alpha": 64, "mid": 64}}
		if err := l.step(rt, rt.Parallelism(), loaded(c, 64, 0.01)); err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha scale-down-clamp", "mid scale-down-clamp", "zeta scale-down-clamp"}
		if !reflect.DeepEqual(holds, want) {
			t.Fatalf("run %d: holds %v, want %v", run, holds, want)
		}
	}
}

// TestRoundAdvancesOncePerStep (d): the ordinal counts Steps — without a
// scaler, without constraints, and through the scaler's inactivity phase
// — and observers see it.
func TestRoundAdvancesOncePerStep(t *testing.T) {
	g, c := chain(t, 4, 64, "work")
	var rounds []int
	observe := func(iv Interval) { rounds = append(rounds, iv.Round) }

	plain := newLoop(t, g, nil, false, observe)
	rt := &fakeRuntime{par: map[string]int{"work": 4}}
	for i := 0; i < 3; i++ {
		if err := plain.Step(rt); err != nil {
			t.Fatal(err)
		}
	}
	if plain.round != 3 || !reflect.DeepEqual(rounds, []int{1, 2, 3}) {
		t.Errorf("non-elastic loop: round = %d, observed %v, want 3 and [1 2 3]", plain.round, rounds)
	}
	if len(rt.log) != 0 {
		t.Errorf("a loop without constraints or scaler touched the runtime: %v", rt.log)
	}

	rounds = nil
	cfg := core.DefaultScalerConfig() // two inactivity intervals after a scale-up
	elastic, err := New(g, []*model.Constraint{c}, cfg, true, probe.NewProbeSet(), observe)
	if err != nil {
		t.Fatal(err)
	}
	rt = &fakeRuntime{par: map[string]int{"work": 4}}
	decided := 0
	for i := 0; i < 4; i++ {
		before := len(scales(rt.log))
		if err := elastic.step(rt, rt.Parallelism(), loaded(c, rt.par["work"], 1.2)); err != nil {
			t.Fatal(err)
		}
		decided += len(scales(rt.log)) - before
	}
	if elastic.round != 4 || !reflect.DeepEqual(rounds, []int{1, 2, 3, 4}) {
		t.Errorf("elastic loop: round = %d, observed %v, want 4 and [1 2 3 4]", elastic.round, rounds)
	}
	if decided != 2 {
		t.Errorf("scale-ups in rounds 1 and 4 only (two inactive between): got %d", decided)
	}
}

// TestInfeasibleCountedInLoop (d): a bottleneck already at maximum
// parallelism is infeasible; every interval's decision says so.
func TestInfeasibleCountedInLoop(t *testing.T) {
	g, c := chain(t, 4, 4, "work")
	l := newLoop(t, g, []*model.Constraint{c}, true)
	infeasible := 0
	l.observers = append(l.observers, func(iv Interval) {
		for _, cd := range iv.Decision.PerConstraint {
			if cd.Infeasible {
				infeasible++
			}
		}
	})
	rt := &fakeRuntime{par: map[string]int{"work": 4}}
	for i := 0; i < 2; i++ {
		if err := l.step(rt, rt.Parallelism(), loaded(c, 4, 1.2)); err != nil {
			t.Fatal(err)
		}
	}
	if infeasible != 2 {
		t.Errorf("infeasible constraint decisions = %d, want 2", infeasible)
	}
}

// ghostConstraint is a valid constraint over a vertex the loop's graph
// does not have: with a summary that covers it, Decide fails.
func ghostConstraint(t *testing.T) *model.Constraint {
	t.Helper()
	_, c := chain(t, 4, 64, "ghost")
	return c
}

// TestDecideErrorReturnedAfterObservers: Step returns the scaler's error
// instead of swallowing it, the observers still saw the interval (with no
// decision), nothing was scaled and the round counted.
func TestDecideErrorReturnedAfterObservers(t *testing.T) {
	g, _ := chain(t, 4, 64, "work")
	ghost := ghostConstraint(t)
	var seen []Interval
	l := newLoop(t, g, []*model.Constraint{ghost}, true, func(iv Interval) { seen = append(seen, iv) })
	rt := &fakeRuntime{par: map[string]int{"work": 4}}
	err := l.step(rt, rt.Parallelism(), loaded(ghost, 4, 0.5))
	if err == nil || !strings.Contains(err.Error(), `"ghost" not in job graph`) {
		t.Fatalf("step error = %v, want the scaler's missing-vertex error", err)
	}
	if len(seen) != 1 || seen[0].Decision != nil || seen[0].Summary == nil || seen[0].Round != 1 {
		t.Errorf("observed %+v, want one interval with a summary and no decision", seen)
	}
	if n := len(scales(rt.log)); n != 0 {
		t.Errorf("%d Scale calls after a failed decision", n)
	}
	if l.round != 1 {
		t.Errorf("round = %d, want 1", l.round)
	}
}

// TestObserversSeeFixedDecisionBeforeItIsApplied: observers run in
// registration order, after SetDeadlines and before the first Scale; a nil
// observer is skipped; a Scale error stops the step.
func TestObserversSeeFixedDecisionBeforeItIsApplied(t *testing.T) {
	g, c := chain(t, 4, 64, "work")
	rt := &fakeRuntime{now: 7.5, par: map[string]int{"work": 4}}
	var order []string
	at := func(name string) Observer {
		return func(iv Interval) {
			order = append(order, fmt.Sprintf("%s@%d", name, len(rt.log)))
			if iv.Now != 7.5 || iv.Parallelism["work"] != 4 || iv.Decision == nil {
				t.Errorf("%s saw %+v", name, iv)
			}
		}
	}
	l := newLoop(t, g, []*model.Constraint{c}, true, at("first"), nil, at("second"))
	if err := l.step(rt, rt.Parallelism(), loaded(c, 4, 1.2)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first@1", "second@1"}; !reflect.DeepEqual(order, want) {
		t.Errorf("observers ran as %v, want %v (after the deadlines, before any scaling)", order, want)
	}
	if n := len(scales(rt.log)); n != 1 {
		t.Errorf("Scale calls = %d, want 1", n)
	}

	delete(rt.par, "work") // the runtime no longer knows the vertex
	err := l.step(rt, map[string]int{"work": 4}, loaded(c, 4, 1.2))
	if err == nil || !strings.Contains(err.Error(), "unknown vertex") {
		t.Errorf("step error = %v, want the runtime's Scale error", err)
	}
}

// TestStepMergesPartialsUnderRuntimeParallelism: Step snapshots the
// probes, merges what the managers hold and finalizes it with the
// runtime's parallelism, not the managers' view of it.
func TestStepMergesPartialsUnderRuntimeParallelism(t *testing.T) {
	g, _ := chain(t, 4, 64, "work")
	probes := probe.NewProbeSet()
	probes.SetBound("e2e", 0.020)
	probes.Probe("e2e").Record(0.010)
	var got *qos.Summary
	l, err := New(g, nil, core.DefaultScalerConfig(), false, probes, func(iv Interval) { got = iv.Summary })
	if err != nil {
		t.Fatal(err)
	}
	// Each partial comes from a manager holding one task's report.
	partial := func(index int, mean float64) *qos.PartialSummary {
		m := qos.NewManager(qos.DefaultManagerConfig())
		m.ReportTask(qos.TaskReport{
			Task:             model.TaskID{Vertex: "work", Index: index},
			TaskLatencyCount: 10, TaskLatencyMean: mean,
			ServiceCount: 10, ServiceMean: mean, ServiceCV: 0.5,
			InterarrivalCount: 10, InterarrivalMean: 0.02, InterarrivalCV: 1,
		})
		return m.PartialSummary()
	}
	a, b := partial(0, 0.01), partial(1, 0.03)
	rt := &fakeRuntime{par: map[string]int{"work": 7}, partials: []*qos.PartialSummary{a, b}}
	if err := l.Step(rt); err != nil {
		t.Fatal(err)
	}
	vs, ok := got.Vertex("work")
	if !ok || vs.Parallelism != 7 || vs.ServiceTimeMean != 0.02 {
		t.Errorf("merged vertex = %+v, want both tasks at parallelism 7 with mean service 0.02", vs)
	}
	if _, intervals := probes.Probe("e2e").Fulfillment(); intervals != 1 {
		t.Errorf("probe saw %d adjustment snapshots, want 1", intervals)
	}
}

// TestManagerConfigHistoryLength: the history spans one adjustment
// interval of measurement intervals, at least one.
func TestManagerConfigHistoryLength(t *testing.T) {
	for _, c := range []struct {
		adj, meas float64
		want      int
	}{{5, 1, 5}, {1, 0.25, 4}, {0.25, 0.1, 3}, {0.025, 0.25, 1}, {0, 0, qos.DefaultManagerConfig().HistoryLength}} {
		if got := ManagerConfig(c.adj, c.meas).HistoryLength; got != c.want {
			t.Errorf("ManagerConfig(%g, %g).HistoryLength = %d, want %d", c.adj, c.meas, got, c.want)
		}
	}
}
