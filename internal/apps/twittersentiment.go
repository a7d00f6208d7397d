package apps

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/core"
	"nephelix/internal/engine"
	"nephelix/internal/model"
	"nephelix/internal/probe"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// Vertex names of the TwitterSentiment job (Figure 7).
const (
	TSSource       = "TweetSource"
	TSHotTopics    = "HotTopics"
	TSTopicsMerger = "HotTopicsMerger"
	TSFilter       = "Filter"
	TSSentiment    = "Sentiment"
	TSSink         = "Sink"
)

// Probe names of the TwitterSentiment job's two constrained sequences.
const (
	// HotTopicsProbe covers constraint (1): (e4, HT, e5, HTM, e6, F),
	// ℓ = 215 ms.
	HotTopicsProbe = "hot-topics-path"
	// SentimentProbe covers constraint (2): (e1, F, e2, S, e3),
	// ℓ = 30 ms.
	SentimentProbe = "sentiment-path"
)

// Item kinds flowing through the TwitterSentiment job.
const (
	kindTweet     uint8 = 1
	kindTopicList uint8 = 2
	kindScored    uint8 = 3
)

// TwitterSentimentOptions parameterizes the TwitterSentiment job build.
type TwitterSentimentOptions struct {
	// Sources is the TweetSource parallelism (static).
	Sources int
	// InitialHT/F/S are starting parallelisms of the elastic vertices;
	// MinElastic/MaxElastic their shared bounds (paper: 1..100).
	InitialHT, InitialFilter, InitialSentiment int
	MinElastic, MaxElastic                     int
	// Schedule is the synthetic tweet-rate trace. Ignored when Replay is
	// set.
	Schedule *workload.DiurnalSchedule
	// Replay, when set, replays a recorded tweet trace at its historic
	// rates instead of synthesizing tweets (the paper's TweetSource
	// design).
	Replay *workload.TweetReplay
	// Topics is the topic universe size; HotK the hot list length.
	Topics int
	HotK   int
	// WindowSeconds is the HT/HTM aggregation window (paper: 0.2 s).
	WindowSeconds float64
	// Bound1 and Bound2 are the two constraint bounds (paper: 215 ms and
	// 30 ms).
	Bound1, Bound2 time.Duration
	// ConstraintQuantile, when in (0,1), turns both constraints into
	// percentile constraints (js, ℓ_pXX, t): the scaler then bounds that
	// quantile of the sequence latency instead of the mean, and the
	// probes account per-interval tail fulfillment. 0 keeps the paper's
	// mean semantics.
	ConstraintQuantile float64
	// Elastic enables reactive scaling.
	Elastic bool
	Scaler  core.ScalerConfig
	// WorkerNodes/SlotsPerNode describe the cluster pool.
	WorkerNodes  int
	SlotsPerNode int
	Seed         int64
	// SampleProbability tags tweets for latency probing.
	SampleProbability float64
	// Guarantee selects the processing guarantee. Note: this job fans
	// every tweet out twice and the Filter drops cold-topic tweets, so
	// the sink dedup's hole/duplicate accounting is advisory here — the
	// checkpoint/replay machinery itself is exercised in full.
	Guarantee ckpt.Guarantee
	// CheckpointInterval is the barrier-checkpoint period in virtual
	// seconds (0 takes the simulator default).
	CheckpointInterval float64
}

// DefaultTwitterSentimentOptions returns the paper's evaluation setup
// with the synthetic trace calibrated to Figure 8: 14 compressed day
// cycles in 100 minutes, peak ≈ 6734 tweets/s at ≈ 2400 s concentrated on
// very few topics.
func DefaultTwitterSentimentOptions() TwitterSentimentOptions {
	return TwitterSentimentOptions{
		Sources:           8,
		InitialHT:         4,
		InitialFilter:     4,
		InitialSentiment:  8,
		MinElastic:        1,
		MaxElastic:        100,
		Schedule:          DefaultTweetTrace(),
		Topics:            1000,
		HotK:              10,
		WindowSeconds:     0.2,
		Bound1:            215 * time.Millisecond,
		Bound2:            30 * time.Millisecond,
		Elastic:           true,
		Scaler:            core.DefaultScalerConfig(),
		WorkerNodes:       130,
		SlotsPerNode:      4,
		Seed:              1,
		SampleProbability: 0.04,
	}
}

// ScaleTwitterSentimentOptions divides the trace rates and every
// parallelism-related quantity by factor, the TwitterSentiment
// counterpart of ScalePrimeTesterOptions.
func ScaleTwitterSentimentOptions(opts TwitterSentimentOptions, factor int) TwitterSentimentOptions {
	if factor <= 1 {
		return opts
	}
	if opts.Schedule != nil {
		f := float64(factor)
		tr := *opts.Schedule
		tr.BaseRate /= f
		tr.DailyAmplitude /= f
		tr.Bursts = append([]workload.Burst(nil), tr.Bursts...)
		for i := range tr.Bursts {
			tr.Bursts[i].ExtraRate /= f
		}
		opts.Schedule = &tr
	}
	for _, v := range []*int{&opts.Sources, &opts.InitialHT, &opts.InitialFilter, &opts.InitialSentiment, &opts.MaxElastic, &opts.WorkerNodes} {
		*v = max(1, *v/factor)
	}
	return opts
}

// DefaultTweetTrace builds the synthetic stand-in for the paper's 69 GB
// two-week Twitter dataset replayed in 100 minutes.
func DefaultTweetTrace() *workload.DiurnalSchedule {
	const cycle = 6000.0 / 14 // 14 "days" in 100 minutes
	return &workload.DiurnalSchedule{
		BaseRate:       900,
		DailyAmplitude: 3600,
		CycleLength:    cycle,
		Length:         6000,
		NoiseAmplitude: 0.12,
		Seed:           42,
		Bursts: []workload.Burst{
			// The rate peak at ≈2400 s whose tweets "seemed to affect one
			// or very few topics" (Section V-B2).
			{Start: 2300, Length: 260, ExtraRate: 2600, Topic: 3},
			// Two smaller bursts for the spiky violations of constraint 2.
			{Start: 900, Length: 120, ExtraRate: 1200, Topic: 17},
			{Start: 4300, Length: 140, ExtraRate: 1500, Topic: 8},
		},
	}
}

// twitterCosts is the data-plane cost model of the TwitterSentiment
// cluster. Tweets are JSON blobs (~350 B); per-flush costs match the
// PrimeTester calibration scaled to the lighter fan-out of this job.
func twitterCosts() sim.CostModel {
	return sim.CostModel{
		FlushCPU:   300e-6,
		ReceiveCPU: 100e-6,
		NetFixed:   150e-6,
		NetPerByte: 8e-9,
		TCPSetup:   1e-3,
	}
}

// itemBytes is a simulated item's serialized size by kind: a tweet is a
// JSON blob, a list carries HotK topics, a score is small.
var itemBytes = byKind[int32]{kindTweet: 350, kindTopicList: 240, kindScored: 64}

// maxTopics bounds topic ids: per-topic state is indexed by them. A
// replayed tweet tagged beyond it counts as untagged.
const maxTopics = 1 << 20

// tsJob is the TwitterSentiment job as both runtimes run it, built once
// from the options: graph, constraints, probes and operator vertices.
type tsJob struct {
	opts        TwitterSentimentOptions // defaults filled in
	graph       *model.JobGraph
	constraints []*model.Constraint
	probes      *probe.ProbeSet
	vertices    []tsVertex
	sched       workload.Schedule // the replay's historic rate, or the trace
}

// newTSJob validates opts, fills their defaults and builds the job.
func newTSJob(opts TwitterSentimentOptions) (*tsJob, error) {
	if opts.Schedule == nil && opts.Replay == nil {
		return nil, fmt.Errorf("apps: twitter sentiment needs a schedule or a replay")
	}
	if opts.Sources <= 0 || opts.InitialHT <= 0 || opts.InitialFilter <= 0 || opts.InitialSentiment <= 0 {
		return nil, fmt.Errorf("apps: twitter sentiment needs positive parallelism")
	}
	if opts.Topics <= 1 {
		opts.Topics = 1000
	}
	opts.HotK, opts.MinElastic, opts.MaxElastic = orDefault(opts.HotK, 10), orDefault(opts.MinElastic, 1), orDefault(opts.MaxElastic, 100)
	opts.WindowSeconds, opts.SampleProbability = orDefault(opts.WindowSeconds, 0.2), orDefault(opts.SampleProbability, 0.04)
	// Topic ids are dense — below Topics, or a burst's — so per-topic
	// operator state is indexed, not hashed, and sized here once.
	topicSpan := opts.Topics
	var sched workload.Schedule = opts.Replay
	if opts.Replay == nil {
		if err := opts.Schedule.Validate(); err != nil {
			return nil, fmt.Errorf("apps: %w", err)
		}
		sched = opts.Schedule
		for _, b := range opts.Schedule.Bursts {
			if b.Topic < 0 || b.Topic >= maxTopics {
				return nil, fmt.Errorf("apps: burst topic %d outside [0, %d)", b.Topic, maxTopics)
			}
			topicSpan = max(topicSpan, b.Topic+1)
		}
	}

	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: TSSource, Parallelism: opts.Sources, MinParallelism: opts.Sources, MaxParallelism: opts.Sources},
		{Name: TSHotTopics, Parallelism: opts.InitialHT, MinParallelism: opts.MinElastic, MaxParallelism: opts.MaxElastic, LatencyMode: model.LatencyReadWrite},
		{Name: TSTopicsMerger, Parallelism: 1, MinParallelism: 1, MaxParallelism: 1, LatencyMode: model.LatencyReadWrite},
		{Name: TSFilter, Parallelism: opts.InitialFilter, MinParallelism: opts.MinElastic, MaxParallelism: opts.MaxElastic},
		{Name: TSSentiment, Parallelism: opts.InitialSentiment, MinParallelism: opts.MinElastic, MaxParallelism: opts.MaxElastic},
		{Name: TSSink, Parallelism: 2, MinParallelism: 2, MaxParallelism: 2},
	} {
		if err := g.AddVertex(v); err != nil {
			return nil, fmt.Errorf("apps: %w", err)
		}
	}
	// Edge order per vertex defines the Emit edge indices:
	// TweetSource: 0 = e1 (→Filter), 1 = e4 (→HotTopics).
	for _, e := range []struct {
		src, dst string
		pattern  model.WiringPattern
	}{
		{TSSource, TSFilter, model.PatternRoundRobin},          // e1
		{TSSource, TSHotTopics, model.PatternRoundRobin},       // e4
		{TSHotTopics, TSTopicsMerger, model.PatternRoundRobin}, // e5
		{TSTopicsMerger, TSFilter, model.PatternBroadcast},     // e6
		{TSFilter, TSSentiment, model.PatternRoundRobin},       // e2
		{TSSentiment, TSSink, model.PatternRoundRobin},         // e3
	} {
		if err := g.AddEdge(e.src, e.dst, e.pattern); err != nil {
			return nil, fmt.Errorf("apps: %w", err)
		}
	}

	probes := probe.NewProbeSetSeeded(opts.Seed)
	probeHot, probeSent := probes.Probe(HotTopicsProbe), probes.Probe(SentimentProbe)
	probes.SetBound(HotTopicsProbe, opts.Bound1.Seconds())
	probes.SetBound(SentimentProbe, opts.Bound2.Seconds())
	if q := opts.ConstraintQuantile; q > 0 && q < 1 {
		probes.SetQuantile(HotTopicsProbe, q)
		probes.SetQuantile(SentimentProbe, q)
	}

	var constraints []*model.Constraint
	for i, c := range []struct {
		bound time.Duration
		seq   []string
	}{
		{opts.Bound1, []string{TSSource + "->" + TSHotTopics, TSHotTopics, TSHotTopics + "->" + TSTopicsMerger, TSTopicsMerger, TSTopicsMerger + "->" + TSFilter, TSFilter}},
		{opts.Bound2, []string{TSSource + "->" + TSFilter, TSFilter, TSFilter + "->" + TSSentiment, TSSentiment, TSSentiment + "->" + TSSink}},
	} {
		seq, err := model.ParseSequence(g, c.seq...)
		if err != nil {
			return nil, fmt.Errorf("apps: %w", err)
		}
		constraints = append(constraints, &model.Constraint{Name: fmt.Sprintf("constraint-%d", i+1), Sequence: seq,
			Bound: c.bound, Window: 10 * time.Second, Quantile: opts.ConstraintQuantile})
	}

	return &tsJob{
		opts:        opts,
		graph:       g,
		constraints: constraints,
		probes:      probes,
		sched:       sched,
		// Simulated service times: means (seconds) calibrated so that the
		// paper's scaling magnitudes hold — at the 6.7 k tweets/s peak the
		// Sentiment vertex needs ≈30 extra tasks when a burst topic passes
		// the filter. HotTopics parses the tweet JSON and extracts
		// hashtags/topics, the dominant per-tweet cost besides sentiment
		// classification.
		vertices: []tsVertex{
			{name: TSHotTopics, svc: byKind[serviceTime]{kindTweet: {1.1e-3, 0.7, 0.6}},
				newOp: func() tsOperator { return &hotTopicsOp{k: opts.HotK, counts: topicCounts{n: make([]int, topicSpan)}} }},
			{name: TSTopicsMerger, svc: byKind[serviceTime]{kindTopicList: {150e-6, 0.7, 0.6}},
				newOp: func() tsOperator { return &mergerOp{k: opts.HotK, counts: make(map[uint64]float64)} }},
			{name: TSFilter, svc: byKind[serviceTime]{kindTweet: {90e-6, 0.7, 0.6}, kindTopicList: {400e-6, 0.7, 0.6}},
				ends: byKind[*probe.Probe]{kindTopicList: probeHot}, newOp: func() tsOperator { return &filterOp{hot: make([]bool, topicSpan)} }},
			{name: TSSentiment, svc: byKind[serviceTime]{kindTweet: {5e-3, 0.6, 0.8}}, newOp: func() tsOperator { return sentimentOp{} }},
			{name: TSSink, svc: byKind[serviceTime]{kindScored: {30e-6, 0.7, 0.6}},
				ends: byKind[*probe.Probe]{kindScored: probeSent}, newOp: func() tsOperator { return &sinkOp{} }}, // only hot topics reach it
		},
	}, nil
}

// BuildTwitterSentiment assembles the TwitterSentiment job's simulator
// config and probe set.
func BuildTwitterSentiment(opts TwitterSentimentOptions) (sim.Config, *sim.ProbeSet, error) {
	j, err := newTSJob(opts)
	if err != nil {
		return sim.Config{}, nil, err
	}
	return j.simConfig(), j.probes, nil
}

// TwitterSentimentSpec assembles the same job for the live engine, with
// tweet text for Sentiment to score, paced in wall-clock seconds. Elastic,
// Scaler, the cluster pool and Guarantee are the engine.Config's to set.
func TwitterSentimentSpec(opts TwitterSentimentOptions) (*engine.JobSpec, *probe.ProbeSet, error) {
	j, err := newTSJob(opts)
	if err != nil {
		return nil, nil, err
	}
	return j.engineSpec(), j.probes, nil
}

// simConfig runs the job's operators through the simulator adapter; only
// a windowed operator's becomes a timer behaviour.
func (j *tsJob) simConfig() sim.Config {
	opts := j.opts
	cfg := sim.Config{
		Graph:       j.graph,
		Constraints: j.constraints,
		Vertices: map[string]sim.VertexConfig{TSSource: {
			Source:            &sim.SourceConfig{Schedule: j.sched, EmitCost: 30e-6, Emit: newSimTweetSource(opts)},
			SampleProbability: opts.SampleProbability,
		}},
		Edges:              make(map[model.EdgeKey]sim.EdgeConfig),
		Costs:              twitterCosts(),
		Elastic:            opts.Elastic,
		Scaler:             opts.Scaler,
		WorkerNodes:        opts.WorkerNodes,
		SlotsPerNode:       opts.SlotsPerNode,
		Seed:               opts.Seed,
		Guarantee:          opts.Guarantee,
		CheckpointInterval: opts.CheckpointInterval,
	}
	payloads := newTopicListPayloads()
	for i := range j.vertices {
		v := &j.vertices[i]
		cfg.Vertices[v.name] = sim.VertexConfig{NewBehavior: func(int) sim.Behavior {
			a := &simOperator{op: v.newOp(), v: v, payloads: payloads}
			if win, ok := a.op.(tsWindowed); ok {
				return &simWindow{simOperator: a, win: win, window: opts.WindowSeconds}
			}
			return a
		}}
	}
	for _, e := range j.graph.Edges() {
		cfg.Edges[e.Key()] = sim.EdgeConfig{Mode: sim.BatchAdaptive}
	}
	return cfg
}

// engineSpec runs the job's operators through the engine adapter; only a
// windowed operator's becomes a timer UDF.
func (j *tsJob) engineSpec() *engine.JobSpec {
	spec := engine.NewJobSpec(j.graph).SetSource(TSSource, engine.SourceSpec{
		Schedule:          j.sched,
		Emit:              newEngineTweetSource(j.opts),
		SampleProbability: j.opts.SampleProbability,
	})
	window := time.Duration(j.opts.WindowSeconds * float64(time.Second))
	for i := range j.vertices {
		v := &j.vertices[i]
		spec.SetUDF(v.name, func(int) engine.UDF {
			a := &engineOperator{op: v.newOp(), v: v}
			if win, ok := a.op.(tsWindowed); ok {
				return &engineWindow{engineOperator: a, win: win, window: window}
			}
			return a
		})
	}
	for _, c := range j.constraints {
		spec.AddConstraint(c)
	}
	return spec
}

// orDefault returns v, or def when v is not positive.
func orDefault[T int | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// tweetTopic is the topic a tweet is ranked and filtered by: its first
// hashtag. An untagged tweet, or one tagged beyond maxTopics, counts as
// topic 0.
func tweetTopic(tw workload.Tweet) uint64 {
	if len(tw.Topics) > 0 {
		if idx, ok := workload.TopicIndex(tw.Topics[0]); ok && idx < maxTopics {
			return uint64(idx)
		}
	}
	return 0
}

// newEngineTweetSource builds the engine's TweetSource emission: one
// tweet stream (the replay, or a generator over the schedule's bursts)
// that every source task draws from under a mutex.
func newEngineTweetSource(opts TwitterSentimentOptions) func(*engine.Context) {
	var next func() workload.Tweet
	if opts.Replay != nil {
		next = opts.Replay.Next
	} else {
		gen, start := workload.NewTweetGenerator(opts.Topics, 1.2, opts.Seed+1000), time.Now()
		next = func() workload.Tweet {
			topic, w := opts.Schedule.BurstWeight(time.Since(start).Seconds())
			return gen.Next(time.Now().UnixMilli(), topic, w)
		}
	}
	var mu sync.Mutex
	return func(ctx *engine.Context) {
		mu.Lock()
		tw := next()
		mu.Unlock()
		rec := engine.Record{Value: tsMsg{kind: kindTweet, topic: tweetTopic(tw), text: tw.Text}, EmitTime: time.Now(), Sampled: ctx.Sample()}
		ctx.Emit(1, rec) // e4 → HotTopics
		ctx.Emit(0, rec) // e1 → Filter
	}
}

// newSimTweetSource builds the simulated TweetSource emission: a
// recorded trace replayed in timestamp order ("replays JSON-encoded
// tweets at the correct historic rates or a multiple thereof"), or
// Zipf-distributed topics with burst concentration. Each tweet is sent
// twice: copy 1 to HotTopics via e4, copy 2 to Filter via e1.
func newSimTweetSource(opts TwitterSentimentOptions) sim.SourceFunc {
	var zipf *rand.Zipf
	if opts.Replay == nil {
		zipf = rand.NewZipf(rand.New(rand.NewSource(opts.Seed+1000)), 1.2, 1, uint64(opts.Topics-1))
	}
	return func(ctx *sim.TaskContext, now float64) {
		var topic uint64
		if opts.Replay != nil {
			topic = tweetTopic(opts.Replay.Next())
		} else {
			topic = zipf.Uint64()
			if burstTopic, w := opts.Schedule.BurstWeightOf(now, ctx.EmitRate()); w > 0 && ctx.Rand().Float64() < w {
				topic = uint64(burstTopic)
			}
		}
		tweet := sim.Item{EmitTime: now, Size: itemBytes[kindTweet], Kind: kindTweet, Key: topic, Sampled: ctx.Sample()}
		ctx.Emit(1, &tweet) // e4 → HotTopics
		ctx.Emit(0, &tweet) // e1 → Filter
	}
}
