package sim_test

import (
	"reflect"
	"testing"
	"time"

	"nephelix/internal/apps"
	"nephelix/internal/model"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// primeTesterOptions is the Fig. 6 PrimeTester at paper scale (32
// sources × 128 testers × 32 sinks, 8192 channels); divided by 4 it is
// the benchmark's sim-primetester job.
func primeTesterOptions() apps.PrimeTesterOptions {
	return apps.PrimeTesterOptions{
		Sources: 32, Sinks: 32, PrimeTesters: 128, MinPT: 1, MaxPT: 520,
		Schedule: &workload.StepSchedule{
			WarmUpRate: 10000, StepDelta: 10000, IncrementSteps: 4, StepDuration: 60,
		},
		Mode:            sim.BatchAdaptive,
		ConstraintBound: 20 * time.Millisecond,
		Elastic:         true,
		WorkerNodes:     130,
		SlotsPerNode:    5,
		Seed:            1,
	}
}

// wiringCases are the two benchmark-scale jobs.
var wiringCases = []struct {
	name  string
	build func() (sim.Config, *sim.ProbeSet, error)
}{
	{"primetester", func() (sim.Config, *sim.ProbeSet, error) {
		return apps.BuildPrimeTester(apps.ScalePrimeTesterOptions(primeTesterOptions(), 4))
	}},
	{"twittersentiment", func() (sim.Config, *sim.ProbeSet, error) {
		return apps.BuildTwitterSentiment(apps.ScaleTwitterSentimentOptions(apps.DefaultTwitterSentimentOptions(), 4))
	}},
}

// refWiring lays channels out the way the simulator always has: one
// channel at a time, producer-major, each registered with the next
// manager in a round-robin that task registrations share.
type refWiring struct {
	g      *model.JobGraph
	w      sim.Wiring
	tasks  map[string][]model.TaskID
	next   map[string]int
	outPos map[model.EdgeKey]int
	rr     int
}

func newRefWiring(g *model.JobGraph) *refWiring {
	r := &refWiring{
		g:      g,
		w:      sim.Wiring{Gates: map[model.TaskID][][]model.ChannelID{}, In: map[model.TaskID][]model.ChannelID{}},
		tasks:  map[string][]model.TaskID{},
		next:   map[string]int{},
		outPos: map[model.EdgeKey]int{},
	}
	for _, v := range g.Vertices() {
		for i, ek := range g.OutEdges(v.Name) {
			r.outPos[ek] = i
		}
	}
	return r
}

func (r *refWiring) newTask(v string) model.TaskID {
	id := model.TaskID{Vertex: v, Index: r.next[v]}
	r.next[v]++
	r.rr++
	r.w.Gates[id] = make([][]model.ChannelID, len(r.g.OutEdges(v)))
	return id
}

func (r *refWiring) connect(ek model.EdgeKey, p, c model.TaskID) {
	id := model.ChannelID{Edge: ek, Producer: p.Index, Consumer: c.Index}
	r.w.Channels = append(r.w.Channels, id)
	r.w.Managers = append(r.w.Managers, r.rr%sim.ManagerCount)
	r.rr++
	gates := r.w.Gates[p]
	gates[r.outPos[ek]] = append(gates[r.outPos[ek]], id)
	r.w.In[c] = append(r.w.In[c], id)
}

// bootstrap creates every vertex's tasks, then every edge's channels.
func (r *refWiring) bootstrap() {
	for _, v := range r.g.Vertices() {
		for i := 0; i < v.Parallelism; i++ {
			r.tasks[v.Name] = append(r.tasks[v.Name], r.newTask(v.Name))
		}
	}
	for _, e := range r.g.Edges() {
		for _, p := range r.tasks[e.Source] {
			for _, c := range r.tasks[e.Target] {
				r.connect(e.Key(), p, c)
			}
		}
	}
}

// scaleUp adds one task to v: inbound channels one producer at a time,
// then outbound channels to every consumer.
func (r *refWiring) scaleUp(v string) {
	t := r.newTask(v)
	for _, ek := range r.g.InEdges(v) {
		for _, p := range r.tasks[ek.Source] {
			r.connect(ek, p, t)
		}
	}
	for _, ek := range r.g.OutEdges(v) {
		for _, c := range r.tasks[ek.Target] {
			r.connect(ek, t, c)
		}
	}
	r.tasks[v] = append(r.tasks[v], t)
}

func compareWiring(t *testing.T, stage string, got, want sim.Wiring) {
	t.Helper()
	if !reflect.DeepEqual(got.Channels, want.Channels) {
		t.Errorf("%s: channel order differs from the producer-major reference (%d vs %d channels)", stage, len(got.Channels), len(want.Channels))
	}
	if !reflect.DeepEqual(got.Managers, want.Managers) {
		t.Errorf("%s: channel manager assignment differs from the round-robin reference", stage)
	}
	if !reflect.DeepEqual(got.Gates, want.Gates) {
		t.Errorf("%s: gate consumer lists differ from the reference", stage)
	}
	if !reflect.DeepEqual(got.In, want.In) {
		t.Errorf("%s: task inbound channel lists differ from the reference", stage)
	}
}

// TestWiringMatchesReference: building a job, and then growing each of
// its vertices by one task, leaves every gate's consumers, every task's
// inbound channels, the simulator's channel order and each channel's QoS
// manager exactly as one-channel-at-a-time producer-major wiring does —
// the layout every simulated figure depends on.
func TestWiringMatchesReference(t *testing.T) {
	for _, c := range wiringCases {
		t.Run(c.name, func(t *testing.T) {
			cfg, probes, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(cfg, probes)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefWiring(cfg.Graph)
			ref.bootstrap()
			compareWiring(t, "bootstrap", s.Wiring(), ref.w)
			for _, v := range cfg.Graph.Vertices() {
				if s.AddTasks(v.Name, 1) != 1 {
					t.Fatalf("scale-up of %s placed no task", v.Name)
				}
				ref.scaleUp(v.Name)
			}
			compareWiring(t, "scale-up", s.Wiring(), ref.w)
		})
	}
}

// TestNewAllocBudget pins the paper-scale PrimeTester's sim.New at one
// consumer snapshot per producer gate and one rendered name per edge.
// Adding its 8192 channels one snapshot each, with a name per channel,
// took 35 007 allocations; wiring each producer in one snapshot takes
// about 10 760. The budget sits between the two.
func TestNewAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper-scale job several times")
	}
	cfg, probes, err := apps.BuildPrimeTester(primeTesterOptions())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sim.New(cfg, probes); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("paper-scale PrimeTester sim.New: %.0f allocations", allocs)
	if allocs > newAllocBudget {
		t.Errorf("paper-scale sim.New: %.0f allocations, want ≤ %d", allocs, newAllocBudget)
	}
}

const newAllocBudget = 16000

// BenchmarkSimNew is the cost of building a simulated job: bench-scale
// and paper-scale PrimeTester. Wiring that grows quadratically with a
// vertex's parallelism shows as a paper-scale figure far above 16× the
// bench-scale one.
func BenchmarkSimNew(b *testing.B) {
	for _, c := range []struct {
		name   string
		factor int
	}{{"bench-scale", 4}, {"paper-scale", 1}} {
		b.Run(c.name, func(b *testing.B) {
			cfg, probes, err := apps.BuildPrimeTester(apps.ScalePrimeTesterOptions(primeTesterOptions(), c.factor))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.New(cfg, probes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
