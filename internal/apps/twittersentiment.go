package apps

import (
	"fmt"
	"math/rand"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/core"
	"nephelix/internal/model"
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

const (
	tweetBytes     = 350
	topicListBytes = 240
	scoredBytes    = 64
)

// UDF service-time means (seconds) calibrated so that the paper's scaling
// magnitudes hold: at the 6.7 k tweets/s peak the Sentiment vertex needs
// ≈30 extra tasks when a burst topic passes the filter.
const (
	// HotTopics parses the tweet JSON and extracts hashtags/topics —
	// the dominant per-tweet cost besides sentiment classification.
	htServicePerTweet   = 1.1e-3
	htmServicePerList   = 150e-6
	filterServiceTweet  = 90e-6
	filterServiceList   = 400e-6
	sentimentService    = 5e-3
	sinkServicePerScore = 30e-6
)

// hotTopicsBehavior is the HT task: counts topics over a time window and
// emits its partial top-k list every window (Section V-B1: "time-based
// window aggregation with 200 ms windows").
type hotTopicsBehavior struct {
	window   float64
	k        int
	counts   topicCounts
	payloads *topicListPayloads
	// origins collects sampled tweet emit times for read-write sequence
	// latency probing across the aggregation.
	origins []float64
	scratch []topicWeight[int]
}

var _ sim.TimerBehavior = (*hotTopicsBehavior)(nil)

// maxOrigins caps the sampled emit times one window's list carries.
const maxOrigins = 32

func (b *hotTopicsBehavior) ServiceTime(rng *rand.Rand, _ *sim.Item) float64 {
	return htServicePerTweet * (0.7 + 0.6*rng.Float64())
}

func (b *hotTopicsBehavior) Process(_ *sim.TaskContext, it *sim.Item) {
	b.counts.add(it.Key)
	if it.Sampled && len(b.origins) < maxOrigins {
		if b.origins == nil {
			b.origins = make([]float64, 0, 8) // a typical window's samples; leaves with its list item
		}
		b.origins = append(b.origins, it.EmitTime)
	}
}

func (b *hotTopicsBehavior) TimerInterval() float64 { return b.window }

// OnTimer emits the partial hot-topic list: the item carries the top
// keys of the window's counts.
func (b *hotTopicsBehavior) OnTimer(ctx *sim.TaskContext) {
	if len(b.counts.seen) == 0 {
		return
	}
	top := b.counts.top(b.k, &b.scratch)
	it := sim.Item{
		EmitTime: ctx.Now(),
		Size:     topicListBytes,
		Kind:     kindTopicList,
		Origins:  b.origins,
		Sampled:  len(b.origins) > 0,
	}
	it.Key = b.payloads.put(top)
	b.counts.reset()
	b.origins = nil
	ctx.Emit(0, &it)
}

// topicListPayloads carries full top-k lists out of band, keyed by a
// token stored in Item.Key: items stay small while behaviors exchange
// real list contents. One instance exists per job build (the simulator is
// single-threaded). Entries older than the eviction window are dropped;
// broadcast consumers read within a fraction of a second, far inside the
// window.
type topicListPayloads struct {
	next  uint64
	lists map[uint64][]uint64
}

// payloadWindow bounds the number of outstanding list payloads.
const payloadWindow = 8192

func newTopicListPayloads() *topicListPayloads {
	return &topicListPayloads{lists: make(map[uint64][]uint64)}
}

// put stores a list and returns its token.
func (p *topicListPayloads) put(list []uint64) uint64 {
	p.next++
	p.lists[p.next] = list
	if p.next > payloadWindow {
		delete(p.lists, p.next-payloadWindow)
	}
	return p.next
}

// get reads a list without consuming it (broadcast edges deliver the same
// token to many consumers).
func (p *topicListPayloads) get(token uint64) []uint64 {
	return p.lists[token]
}

// maxTopics bounds topic ids: per-topic state is indexed by them. A
// replayed tweet tagged beyond it counts as untagged.
const maxTopics = 1 << 20

// topicCounts counts tweets per topic over one window: indexed by topic
// (grown for a replayed trace's stray one), with the topics it has seen
// listed, so a window costs what it saw.
type topicCounts struct {
	n    []int
	seen []uint64 // topics with n > 0
}

func (c *topicCounts) add(topic uint64) {
	if topic >= uint64(len(c.n)) {
		c.n = append(c.n, make([]int, topic+1-uint64(len(c.n)))...)
	}
	if c.n[topic] == 0 {
		c.seen = append(c.seen, topic)
	}
	c.n[topic]++
}

// top returns the k most counted topics (see topK).
func (c *topicCounts) top(k int, scratch *[]topicWeight[int]) []uint64 {
	all := (*scratch)[:0]
	for _, topic := range c.seen {
		all = append(all, topicWeight[int]{topic, c.n[topic]})
	}
	*scratch = all
	return topK(all, k)
}

func (c *topicCounts) reset() {
	for _, topic := range c.seen {
		c.n[topic] = 0
	}
	c.seen = c.seen[:0]
}

// topicWeight is one ranking candidate of topKKeys.
type topicWeight[N int | float64] struct {
	key uint64
	n   N
}

// topKKeys returns the k highest-weight keys of a map; *scratch is the
// caller's reusable candidate buffer.
func topKKeys[N int | float64](counts map[uint64]N, k int, scratch *[]topicWeight[N]) []uint64 {
	all := (*scratch)[:0]
	for key, n := range counts {
		all = append(all, topicWeight[N]{key, n})
	}
	*scratch = all
	return topK(all, k)
}

// topK returns the keys of the k highest-weight candidates, ties broken
// by key (so the candidates' order never shows), in a fresh slice. It
// reorders all.
func topK[N int | float64](all []topicWeight[N], k int) []uint64 {
	// Partial selection sort: k is small (10).
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[best].n || (all[j].n == all[best].n && all[j].key < all[best].key) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	keys := make([]uint64, k)
	for i := 0; i < k; i++ {
		keys[i] = all[i].key
	}
	return keys
}

// mergerBehavior is the HTM task: it merges every received partial list
// into the global ranking and broadcasts the merged hot list immediately
// ("the HTM task merges all partial lists into a global one and
// broadcasts it to all Filter tasks" — the paper gives HTM no window of
// its own, and the reported latencies only fit a merge-on-receipt
// design). Older contributions decay multiplicatively so the global list
// tracks the HT windows.
type mergerBehavior struct {
	k        int
	counts   map[uint64]float64
	payloads *topicListPayloads
	scratch  []topicWeight[float64]
}

var _ sim.Behavior = (*mergerBehavior)(nil)

// mergerDecay is the per-receipt decay of accumulated rank weight.
const mergerDecay = 0.9

func (b *mergerBehavior) ServiceTime(rng *rand.Rand, _ *sim.Item) float64 {
	return htmServicePerList * (0.7 + 0.6*rng.Float64())
}

func (b *mergerBehavior) Process(ctx *sim.TaskContext, it *sim.Item) {
	for key, w := range b.counts {
		w *= mergerDecay
		if w < 0.05 {
			delete(b.counts, key)
			continue
		}
		b.counts[key] = w
	}
	for rank, key := range b.payloads.get(it.Key) {
		b.counts[key] += float64(b.k - rank) // rank-weighted merge
	}
	if len(b.counts) == 0 {
		return
	}
	top := topKKeys(b.counts, b.k, &b.scratch)
	out := sim.Item{
		EmitTime: ctx.Now(),
		Size:     topicListBytes,
		Kind:     kindTopicList,
		Origins:  it.Origins,
		Sampled:  it.Sampled,
	}
	out.Key = b.payloads.put(top)
	ctx.Emit(0, &out)
}

// filterBehavior is the F task: it keeps the latest global hot list and
// forwards only tweets concerning a hot topic to the Sentiment vertex.
// It terminates constraint (1) — list items record their origins'
// latency here.
type filterBehavior struct {
	hot      []bool // by topic
	payloads *topicListPayloads
	probeHot *sim.Probe
}

var _ sim.Behavior = (*filterBehavior)(nil)

func (b *filterBehavior) ServiceTime(rng *rand.Rand, it *sim.Item) float64 {
	if it.Kind == kindTopicList {
		return filterServiceList * (0.7 + 0.6*rng.Float64())
	}
	return filterServiceTweet * (0.7 + 0.6*rng.Float64())
}

func (b *filterBehavior) Process(ctx *sim.TaskContext, it *sim.Item) {
	if it.Kind == kindTopicList {
		clear(b.hot)
		for _, key := range b.payloads.get(it.Key) {
			if key >= uint64(len(b.hot)) {
				b.hot = append(b.hot, make([]bool, key+1-uint64(len(b.hot)))...)
			}
			b.hot[key] = true
		}
		for _, origin := range it.Origins {
			b.probeHot.Record(ctx.Now() - origin)
		}
		return
	}
	if it.Key < uint64(len(b.hot)) && b.hot[it.Key] {
		ctx.Emit(0, it)
	}
}

// sentimentBehavior is the S task: it classifies the tweet's sentiment
// (LingPipe stand-in with a calibrated cost).
type sentimentBehavior struct{}

var _ sim.Behavior = (*sentimentBehavior)(nil)

func (sentimentBehavior) ServiceTime(rng *rand.Rand, _ *sim.Item) float64 {
	return sentimentService * (0.6 + 0.8*rng.Float64())
}

func (sentimentBehavior) Process(ctx *sim.TaskContext, it *sim.Item) {
	it.Kind = kindScored
	it.Size = scoredBytes
	ctx.Emit(0, it)
}

// sinkBehavior is the SI task: it tracks per-topic sentiment and
// terminates constraint (2) at its inbound edge (e3 ends the sequence,
// so latency is recorded at consume time, before the sink's own service).
type sinkBehavior struct {
	probe *sim.Probe
}

var _ sim.Behavior = (*sinkBehavior)(nil)

func (b *sinkBehavior) ServiceTime(rng *rand.Rand, it *sim.Item) float64 {
	// Constraint (2) ends with edge e3: measure at consumption.
	return sinkServicePerScore * (0.7 + 0.6*rng.Float64())
}

func (b *sinkBehavior) Process(ctx *sim.TaskContext, it *sim.Item) {
	if it.Sampled {
		b.probe.Record(ctx.Now() - it.EmitTime)
	}
}

// BuildTwitterSentiment assembles the TwitterSentiment job's simulator
// config and probe set.
func BuildTwitterSentiment(opts TwitterSentimentOptions) (sim.Config, *sim.ProbeSet, error) {
	if opts.Schedule == nil && opts.Replay == nil {
		return sim.Config{}, nil, fmt.Errorf("apps: twitter sentiment needs a schedule or a replay")
	}
	if opts.Replay == nil {
		if err := opts.Schedule.Validate(); err != nil {
			return sim.Config{}, nil, fmt.Errorf("apps: %w", err)
		}
	}
	if opts.Sources <= 0 || opts.InitialHT <= 0 || opts.InitialFilter <= 0 || opts.InitialSentiment <= 0 {
		return sim.Config{}, nil, fmt.Errorf("apps: twitter sentiment needs positive parallelism")
	}
	if opts.Topics <= 1 {
		opts.Topics = 1000
	}
	if opts.HotK <= 0 {
		opts.HotK = 10
	}
	if opts.WindowSeconds <= 0 {
		opts.WindowSeconds = 0.2
	}
	if opts.MinElastic <= 0 {
		opts.MinElastic = 1
	}
	if opts.MaxElastic <= 0 {
		opts.MaxElastic = 100
	}
	if opts.SampleProbability <= 0 {
		opts.SampleProbability = 0.04
	}

	g := model.NewJobGraph()
	for _, v := range []model.JobVertex{
		{Name: TSSource, Parallelism: opts.Sources, MinParallelism: opts.Sources, MaxParallelism: opts.Sources},
		{Name: TSHotTopics, Parallelism: opts.InitialHT, MinParallelism: opts.MinElastic,
			MaxParallelism: opts.MaxElastic, LatencyMode: model.LatencyReadWrite},
		{Name: TSTopicsMerger, Parallelism: 1, MinParallelism: 1, MaxParallelism: 1, LatencyMode: model.LatencyReadWrite},
		{Name: TSFilter, Parallelism: opts.InitialFilter, MinParallelism: opts.MinElastic,
			MaxParallelism: opts.MaxElastic},
		{Name: TSSentiment, Parallelism: opts.InitialSentiment, MinParallelism: opts.MinElastic,
			MaxParallelism: opts.MaxElastic},
		{Name: TSSink, Parallelism: 2, MinParallelism: 2, MaxParallelism: 2},
	} {
		if err := g.AddVertex(v); err != nil {
			return sim.Config{}, nil, fmt.Errorf("apps: %w", err)
		}
	}
	// Edge order per vertex defines the Emit edge indices below:
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
			return sim.Config{}, nil, fmt.Errorf("apps: %w", err)
		}
	}

	probes := sim.NewProbeSetSeeded(opts.Seed)
	probeHot := probes.Probe(HotTopicsProbe)
	probeSent := probes.Probe(SentimentProbe)
	probes.SetBound(HotTopicsProbe, opts.Bound1.Seconds())
	probes.SetBound(SentimentProbe, opts.Bound2.Seconds())
	if q := opts.ConstraintQuantile; q > 0 && q < 1 {
		probes.SetQuantile(HotTopicsProbe, q)
		probes.SetQuantile(SentimentProbe, q)
	}
	payloads := newTopicListPayloads()

	seq1, err := model.ParseSequence(g,
		TSSource+"->"+TSHotTopics, TSHotTopics,
		TSHotTopics+"->"+TSTopicsMerger, TSTopicsMerger,
		TSTopicsMerger+"->"+TSFilter, TSFilter)
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("apps: %w", err)
	}
	seq2, err := model.ParseSequence(g,
		TSSource+"->"+TSFilter, TSFilter,
		TSFilter+"->"+TSSentiment, TSSentiment,
		TSSentiment+"->"+TSSink)
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("apps: %w", err)
	}
	constraints := []*model.Constraint{
		{Name: "constraint-1", Sequence: seq1, Bound: opts.Bound1, Window: 10 * time.Second, Quantile: opts.ConstraintQuantile},
		{Name: "constraint-2", Sequence: seq2, Bound: opts.Bound2, Window: 10 * time.Second, Quantile: opts.ConstraintQuantile},
	}

	// Topic ids are dense — below Topics, or a burst's — so the per-topic
	// state of the HotTopics and Filter tasks is indexed, not hashed, and
	// sized here once.
	topicSpan := opts.Topics
	var sched workload.Schedule = opts.Schedule
	emit := newTweetEmitter(opts.Schedule, opts.Topics, opts.Seed+1000)
	if opts.Replay == nil {
		for _, b := range opts.Schedule.Bursts {
			if b.Topic < 0 || b.Topic >= maxTopics {
				return sim.Config{}, nil, fmt.Errorf("apps: burst topic %d outside [0, %d)", b.Topic, maxTopics)
			}
			topicSpan = max(topicSpan, b.Topic+1)
		}
	}
	if opts.Replay != nil {
		sched = opts.Replay
		emit = newReplayEmitter(opts.Replay)
	}
	cfg := sim.Config{
		Graph:       g,
		Constraints: constraints,
		Vertices: map[string]sim.VertexConfig{
			TSSource: {
				Source: &sim.SourceConfig{
					Schedule: sched,
					EmitCost: 30e-6,
					Emit:     emit,
				},
				SampleProbability: opts.SampleProbability,
			},
			TSHotTopics: {NewBehavior: func(int) sim.Behavior {
				return &hotTopicsBehavior{window: opts.WindowSeconds, k: opts.HotK, counts: topicCounts{n: make([]int, topicSpan)}, payloads: payloads}
			}},
			TSTopicsMerger: {NewBehavior: func(int) sim.Behavior {
				return &mergerBehavior{k: opts.HotK, counts: make(map[uint64]float64), payloads: payloads}
			}},
			TSFilter: {NewBehavior: func(int) sim.Behavior {
				return &filterBehavior{hot: make([]bool, topicSpan), payloads: payloads, probeHot: probeHot}
			}},
			TSSentiment: {NewBehavior: func(int) sim.Behavior { return sentimentBehavior{} }},
			TSSink:      {NewBehavior: func(int) sim.Behavior { return &sinkBehavior{probe: probeSent} }},
		},
		Edges: map[model.EdgeKey]sim.EdgeConfig{
			{Source: TSSource, Target: TSFilter}:          {Mode: sim.BatchAdaptive},
			{Source: TSSource, Target: TSHotTopics}:       {Mode: sim.BatchAdaptive},
			{Source: TSHotTopics, Target: TSTopicsMerger}: {Mode: sim.BatchAdaptive},
			{Source: TSTopicsMerger, Target: TSFilter}:    {Mode: sim.BatchAdaptive},
			{Source: TSFilter, Target: TSSentiment}:       {Mode: sim.BatchAdaptive},
			{Source: TSSentiment, Target: TSSink}:         {Mode: sim.BatchAdaptive},
		},
		Costs:              twitterCosts(),
		Elastic:            opts.Elastic,
		Scaler:             opts.Scaler,
		WorkerNodes:        opts.WorkerNodes,
		SlotsPerNode:       opts.SlotsPerNode,
		Seed:               opts.Seed,
		Guarantee:          opts.Guarantee,
		CheckpointInterval: opts.CheckpointInterval,
	}
	return cfg, probes, nil
}

// newReplayEmitter builds a TweetSource emission function that replays a
// recorded trace in timestamp order ("replays JSON-encoded tweets at the
// correct historic rates or a multiple thereof").
func newReplayEmitter(replay *workload.TweetReplay) sim.SourceFunc {
	return func(ctx *sim.TaskContext, now float64) {
		tw := replay.Next()
		topic := uint64(0)
		if len(tw.Topics) > 0 {
			if idx, ok := workload.TopicIndex(tw.Topics[0]); ok && idx >= 0 && idx < maxTopics {
				topic = uint64(idx)
			}
		}
		tweet := sim.Item{
			EmitTime: now,
			Size:     tweetBytes,
			Kind:     kindTweet,
			Key:      topic,
			Sampled:  ctx.Sample(),
		}
		ctx.Emit(1, &tweet) // e4 → HotTopics
		ctx.Emit(0, &tweet) // e1 → Filter
	}
}

// newTweetEmitter builds the TweetSource emission function: each tweet is
// sent twice (copy 1 to HotTopics via e4, copy 2 to Filter via e1), with
// Zipf-distributed topics and burst concentration.
func newTweetEmitter(sched *workload.DiurnalSchedule, topics int, seed int64) sim.SourceFunc {
	zipfRng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(zipfRng, 1.2, 1, uint64(topics-1))
	return func(ctx *sim.TaskContext, now float64) {
		topic := zipf.Uint64()
		if burstTopic, w := sched.BurstWeightOf(now, ctx.EmitRate()); w > 0 && ctx.Rand().Float64() < w {
			topic = uint64(burstTopic)
		}
		sampled := ctx.Sample()
		tweet := sim.Item{
			EmitTime: now,
			Size:     tweetBytes,
			Kind:     kindTweet,
			Key:      topic,
			Sampled:  sampled,
		}
		ctx.Emit(1, &tweet) // e4 → HotTopics
		ctx.Emit(0, &tweet) // e1 → Filter
	}
}
