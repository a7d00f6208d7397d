package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/workload"
)

// The dataplane experiment validates the data-plane X-ray end to end: it
// runs the live engine on a deliberately consumer-bottlenecked pipeline
// and asserts that the backpressure monitor attributes the bottleneck to
// the right edge and vertex. A bursting source feeds a worker whose UDF
// burns a fixed CPU budget per record, far above what its pinned
// parallelism sustains; with small rings the src→work edge must fill,
// stall the producer, and classify as consumer-limited with culprit
// "work" — while the drained work→sink edge must not.

// DataplaneOptions parameterizes the bottleneck run.
type DataplaneOptions struct {
	// Duration is the source schedule length in seconds.
	Duration float64
	// ServiceTime is the per-record CPU burn at the worker.
	ServiceTime time.Duration
}

// DataplaneQuick is the CI-scale configuration (~1.5 s wall clock).
func DataplaneQuick() DataplaneOptions {
	return DataplaneOptions{Duration: 1.5, ServiceTime: 200 * time.Microsecond}
}

// DataplaneResult is the run's outcome.
type DataplaneResult struct {
	Checks CheckList
	// Statuses is the per-edge backpressure classification state after
	// the run (interval counts, onsets, final state).
	Statuses []obs.BackpressureStatus
	// Snapshot is the last data-plane sample.
	Snapshot *obs.DataplaneSnapshot
}

// RunDataplane executes the bottleneck topology and checks attribution
// from what env's telemetry and recorder saw.
func RunDataplane(env Env, opts DataplaneOptions) (*DataplaneResult, error) {
	// The workers busy-wait, so each takes a core: leave one for source and
	// sink, or a starved sink makes work->sink ring-saturated — correctly —
	// and the dominance check below counts that against the hot edge.
	burners := min(2, max(1, runtime.GOMAXPROCS(0)-1))
	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: "src", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
		{Name: "work", Parallelism: burners, MinParallelism: burners, MaxParallelism: burners},
		{Name: "sink", Parallelism: 1, MinParallelism: 1, MaxParallelism: 1},
	} {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	if err := g.AddEdge("src", "work", model.PatternRoundRobin); err != nil {
		return nil, err
	}
	if err := g.AddEdge("work", "sink", model.PatternRoundRobin); err != nil {
		return nil, err
	}
	var emitted, received atomic.Int64
	burn := opts.ServiceTime
	spec := engine.NewJobSpec(g).
		SetSource("src", engine.SourceSpec{
			// 2000 scheduled emissions/s × 64-record bursts attempts 128k
			// records/s; a worker burning 200 µs/record sustains 5k/s, so
			// the src→work rings saturate almost immediately.
			Schedule: &workload.ConstantSchedule{RatePerSecond: 2000, Length: opts.Duration},
			Emit: func(ctx *engine.Context) {
				n := emitted.Add(64)
				for i := 0; i < 64; i++ {
					ctx.Emit(0, engine.Record{Key: uint64(n) + uint64(i)})
				}
			},
		}).
		SetUDF("work", func(int) engine.UDF {
			return engine.UDFFunc(func(ctx *engine.Context, rec engine.Record) {
				// Busy-wait rather than sleep: the bottleneck must show up
				// as consumer busy time, which is what the attribution
				// heuristic distinguishes consumer-limited by.
				for end := time.Now().Add(burn); time.Now().Before(end); {
				}
				ctx.Emit(0, rec)
			})
		}).
		SetUDF("sink", func(int) engine.UDF {
			return engine.UDFFunc(func(*engine.Context, engine.Record) {
				received.Add(1)
			})
		})
	exec, err := engine.New(engine.Config{
		Seed:                1,
		QueueCapacity:       8,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  250 * time.Millisecond,
		Telemetry:           env.Telemetry,
		Recorder:            env.Recorder,
	}).Submit(spec, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		return nil, fmt.Errorf("experiments: dataplane run: %w", err)
	}

	res := &DataplaneResult{
		Statuses: env.Telemetry.Backpressure().Snapshot(),
		Snapshot: env.Telemetry.Dataplane(),
	}
	checks := &res.Checks

	checks.Add("records delivered", ">0",
		fmt.Sprintf("%d", received.Load()), received.Load() > 0)

	var hot, cold *obs.BackpressureStatus
	for i := range res.Statuses {
		switch res.Statuses[i].Edge {
		case "src->work":
			hot = &res.Statuses[i]
		case "work->sink":
			cold = &res.Statuses[i]
		}
	}
	checks.Add("src->work classified", "monitored", fmt.Sprintf("%v", hot != nil), hot != nil)
	if hot != nil {
		limited := hot.Intervals[string(obs.BackpressureConsumerLimited)]
		saturated := hot.Intervals[string(obs.BackpressureRingSaturated)]
		checks.Add("src->work consumer-limited intervals", ">=1",
			fmt.Sprintf("%d (+%d ring-saturated)", limited, saturated), limited >= 1)
		checks.Add("src->work onsets", ">=1", fmt.Sprintf("%d", hot.Onsets), hot.Onsets >= 1)
	}
	if hot != nil && cold != nil {
		// The bottleneck must be attributed to the starved edge, not the
		// freely-draining one. Transient fills of the small downstream
		// rings are tolerated; dominance is what attribution means.
		hotBP := hot.Intervals[string(obs.BackpressureConsumerLimited)] +
			hot.Intervals[string(obs.BackpressureRingSaturated)]
		coldBP := cold.Intervals[string(obs.BackpressureConsumerLimited)] +
			cold.Intervals[string(obs.BackpressureRingSaturated)]
		checks.Add("bottleneck isolated to src->work", "hot > cold backpressured intervals",
			fmt.Sprintf("%d > %d", hotBP, coldBP), hotBP > coldBP)
		checks.Add("work->sink never consumer-limited", "0",
			fmt.Sprintf("%d", cold.Intervals[string(obs.BackpressureConsumerLimited)]),
			cold.Intervals[string(obs.BackpressureConsumerLimited)] == 0)
	}

	// The flight recorder must hold the onset with the culprit vertex.
	var onset *obs.Event
	for _, ev := range env.Recorder.Events() {
		if ev.Kind == obs.KindBackpressureOnset && ev.Lifecycle != nil && ev.Lifecycle.Edge == "src->work" {
			ev := ev
			onset = &ev
			break
		}
	}
	checks.Add("backpressure_onset recorded", "edge src->work",
		fmt.Sprintf("%v", onset != nil), onset != nil)
	if onset != nil {
		checks.Add("onset culprit", "work", onset.Lifecycle.Vertex,
			onset.Lifecycle.Vertex == "work")
	}

	checks.Add("dataplane snapshot", "edges+wheel present",
		fmt.Sprintf("%v", res.Snapshot != nil && len(res.Snapshot.Edges) > 0 && res.Snapshot.Wheel != nil),
		res.Snapshot != nil && len(res.Snapshot.Edges) > 0 && res.Snapshot.Wheel != nil)

	return res, nil
}

// dataplaneRow is the table row: the per-edge classification counts and
// the telemetry store.
func dataplaneRow(env Env) (*Outcome, error) {
	res, err := RunDataplane(env, DataplaneQuick())
	if err != nil {
		return nil, err
	}
	return &Outcome{Checks: res.Checks, Artifacts: []Artifact{
		printedCSV("dataplane.csv", fmt.Sprintf("%d edges", len(res.Statuses)), func(w io.Writer) {
			fmt.Fprintln(w, "edge,state,culprit,onsets,idle,producer_limited,consumer_limited,ring_saturated")
			for _, st := range res.Statuses {
				fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d\n",
					st.Edge, st.State, st.Culprit, st.Onsets,
					st.Intervals[string(obs.BackpressureIdle)],
					st.Intervals[string(obs.BackpressureProducerLimited)],
					st.Intervals[string(obs.BackpressureConsumerLimited)],
					st.Intervals[string(obs.BackpressureRingSaturated)])
			}
		}),
		TimeseriesJSON("dataplane_timeseries.json", env.Telemetry),
	}}, nil
}
