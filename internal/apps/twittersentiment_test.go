package apps

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

func quickTSOptions() TwitterSentimentOptions {
	opts := DefaultTwitterSentimentOptions()
	// Shrink: 5 compressed days in 500 s, modest rates.
	opts.Schedule = &workload.DiurnalSchedule{
		BaseRate:       80,
		DailyAmplitude: 400,
		CycleLength:    100,
		Length:         500,
		NoiseAmplitude: 0.1,
		Seed:           5,
		Bursts:         []workload.Burst{{Start: 230, Length: 40, ExtraRate: 400, Topic: 3}},
	}
	opts.Sources = 2
	opts.InitialHT, opts.InitialFilter, opts.InitialSentiment = 2, 2, 3
	opts.MaxElastic = 40
	opts.WorkerNodes = 40
	return opts
}

func TestBuildTwitterSentimentGraphStructure(t *testing.T) {
	cfg, _, err := BuildTwitterSentiment(quickTSOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Graph
	// Figure 7: six vertices, six edges.
	if len(g.Vertices()) != 6 || len(g.Edges()) != 6 {
		t.Fatalf("graph shape: %d vertices, %d edges", len(g.Vertices()), len(g.Edges()))
	}
	// HTM -> F is the only broadcast edge.
	for _, e := range g.Edges() {
		want := model.PatternRoundRobin
		if e.Source == TSTopicsMerger {
			want = model.PatternBroadcast
		}
		if e.Pattern != want {
			t.Errorf("edge %s: pattern %v, want %v", e.Key(), e.Pattern, want)
		}
	}
	// Three elastic vertices (F, S, HT); HTM and Source are fixed.
	elastic := 0
	for _, v := range g.Vertices() {
		if v.MinParallelism < v.MaxParallelism {
			elastic++
		}
	}
	if elastic != 3 {
		t.Errorf("elastic vertices: %d, want 3", elastic)
	}
	if ht, htm := g.Vertex(TSHotTopics), g.Vertex(TSTopicsMerger); ht.MinParallelism == ht.MaxParallelism || htm.MinParallelism < htm.MaxParallelism {
		t.Error("wrong elasticity assignment")
	}
	// Windowed vertices use read-write latency.
	if g.Vertex(TSHotTopics).LatencyMode != model.LatencyReadWrite ||
		g.Vertex(TSTopicsMerger).LatencyMode != model.LatencyReadWrite {
		t.Error("windowed vertices must use read-write latency")
	}
	if g.Vertex(TSFilter).LatencyMode != model.LatencyReadReady {
		t.Error("filter must use read-ready latency")
	}
}

func TestBuildTwitterSentimentConstraints(t *testing.T) {
	cfg, probes, err := BuildTwitterSentiment(quickTSOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Constraints) != 2 {
		t.Fatalf("constraints: %d, want 2", len(cfg.Constraints))
	}
	c1, c2 := cfg.Constraints[0], cfg.Constraints[1]
	if got := c1.Sequence.Vertices(); len(got) != 3 || got[0] != TSHotTopics || got[2] != TSFilter {
		t.Errorf("constraint 1 vertices: %v", got)
	}
	if got := c2.Sequence.Vertices(); len(got) != 2 || got[0] != TSFilter || got[1] != TSSentiment {
		t.Errorf("constraint 2 vertices: %v", got)
	}
	if c1.Bound != 215*time.Millisecond || c2.Bound != 30*time.Millisecond {
		t.Errorf("bounds: %v / %v", c1.Bound, c2.Bound)
	}
	if probes.Probe(HotTopicsProbe).BoundSeconds == 0 || probes.Probe(SentimentProbe).BoundSeconds == 0 {
		t.Error("probe bounds not set")
	}
}

func TestBuildTwitterSentimentValidation(t *testing.T) {
	opts := quickTSOptions()
	opts.Schedule = nil
	if _, _, err := BuildTwitterSentiment(opts); err == nil {
		t.Error("nil schedule accepted")
	}
	opts = quickTSOptions()
	opts.Sources = 0
	if _, _, err := BuildTwitterSentiment(opts); err == nil {
		t.Error("zero sources accepted")
	}
}

// TestTwitterSentimentIntegration runs the scaled-down job end to end:
// hot lists flow (constraint 1 sees data), filtered tweets reach the sink
// (constraint 2 sees data), and the burst scales the Sentiment vertex.
func TestTwitterSentimentIntegration(t *testing.T) {
	opts := quickTSOptions()
	cfg, probes, err := BuildTwitterSentiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	hot := res.Probes[HotTopicsProbe]
	sent := res.Probes[SentimentProbe]
	if hot.Count == 0 {
		t.Fatal("constraint 1 path saw no data (hot lists not flowing)")
	}
	if sent.Count == 0 {
		t.Fatal("constraint 2 path saw no data (filter passes nothing)")
	}
	// The windowed path is dominated by the 200 ms HT aggregation window
	// (mean wait ≈ half a window) plus batching and queueing.
	if hot.Mean < 0.09 || hot.Mean > 0.215 {
		t.Errorf("hot-topics path mean %.3f s outside window-dominated range", hot.Mean)
	}
	// The sentiment path is far faster.
	if sent.Mean >= hot.Mean {
		t.Errorf("sentiment path %.3f s not faster than hot-topics path %.3f s", sent.Mean, hot.Mean)
	}
	if res.DroppedItems != 0 {
		t.Errorf("dropped %d items", res.DroppedItems)
	}
	// Elastic activity must be present with the varying trace.
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Errorf("no scaling activity: ups=%d downs=%d", res.ScaleUps, res.ScaleDowns)
	}
	if res.PeakParallelism[TSSentiment] <= opts.InitialSentiment {
		t.Errorf("sentiment never scaled above initial %d (peak %d)",
			opts.InitialSentiment, res.PeakParallelism[TSSentiment])
	}
}

func TestDefaultTweetTracePeak(t *testing.T) {
	trace := DefaultTweetTrace()
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Locate the global peak; it must sit in the 2300–2560 s burst with a
	// magnitude near the paper's 6734 tweets/s.
	peakT, peakRate := 0.0, 0.0
	for x := 0.0; x < trace.Length; x += 2 {
		if r := trace.Rate(x); r > peakRate {
			peakRate, peakT = r, x
		}
	}
	if peakT < 2300 || peakT > 2560 {
		t.Errorf("peak at %.0f s, want within the 2300–2560 s burst", peakT)
	}
	if peakRate < 5500 || peakRate > 8000 {
		t.Errorf("peak rate %.0f tweets/s, want ≈ 6734", peakRate)
	}
}

func TestTopKKeys(t *testing.T) {
	counts := map[uint64]int{1: 5, 2: 9, 3: 1, 4: 9, 5: 3}
	var scratch []topicWeight[int]
	top := topKKeys(counts, 3, &scratch)
	if len(top) != 3 || top[0] != 2 || top[1] != 4 || top[2] != 1 {
		t.Errorf("topK: got %v, want [2 4 1] (count desc, key asc ties)", top)
	}
	// k larger than the map; the scratch is reused, the result is not
	// carved out of it (payloads keep the result).
	got := topKKeys(map[uint64]int{7: 1}, 5, &scratch)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("small map: %v", got)
	}
	if top[0] != 2 {
		t.Errorf("earlier result overwritten through the scratch: %v", top)
	}
	if f := topKKeys(map[uint64]float64{1: 0.5, 2: 0.5, 3: 2}, 2, new([]topicWeight[float64])); len(f) != 2 || f[0] != 3 || f[1] != 1 {
		t.Errorf("float weights: got %v, want [3 1]", f)
	}
}

func TestTopicListPayloads(t *testing.T) {
	p := newTopicListPayloads()
	tok := p.put([]uint64{1, 2, 3}, []float64{0.5})
	if got := p.get(tok); len(got.list) != 3 || len(got.origins) != 1 {
		t.Fatalf("get: %+v", got)
	}
	// Broadcast: repeated reads see the same list and samples.
	if got := p.get(tok); len(got.list) != 3 || len(got.origins) != 1 {
		t.Fatalf("second get: %+v", got)
	}
	// Eviction window: the samples leave with their list.
	first := p.put([]uint64{9}, []float64{1, 2})
	for i := 0; i < payloadWindow+1; i++ {
		p.put([]uint64{uint64(i)}, nil)
	}
	if got := p.get(first); got.list != nil || got.origins != nil {
		t.Error("old payload not evicted")
	}
}

// TestBuildTwitterSentimentReplay runs the job from a recorded trace at
// historic rates.
func TestBuildTwitterSentimentReplay(t *testing.T) {
	gen := workload.NewTweetGenerator(50, 1.2, 5)
	var tweets []workload.Tweet
	// 120 s at ~150 tweets/s.
	for ms := int64(0); ms < 120_000; ms += 7 {
		tweets = append(tweets, gen.Next(ms, 0, 0))
	}
	replay, err := workload.NewTweetReplay(tweets, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickTSOptions()
	opts.Schedule = nil
	opts.Replay = replay
	cfg, probes, err := BuildTwitterSentiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The replay's tweets all flow through; both constrained paths see
	// data.
	if got := res.Emitted[TSSource]; got < int64(len(tweets))*95/100 {
		t.Errorf("replayed %d of %d tweets", got, len(tweets))
	}
	if res.Probes[HotTopicsProbe].Count == 0 || res.Probes[SentimentProbe].Count == 0 {
		t.Error("constrained paths saw no data during replay")
	}
}

func TestBuildTwitterSentimentNeedsScheduleOrReplay(t *testing.T) {
	opts := quickTSOptions()
	opts.Schedule = nil
	if _, _, err := BuildTwitterSentiment(opts); err == nil {
		t.Error("missing schedule and replay accepted")
	}
}

// TestTwitterSentimentAllocsPerItem puts the job's behaviours — window
// timers, the merger's ranking, the broadcast hot list, the filter's
// topic set — under an allocation budget: whole-run allocations per
// emitted tweet, set-up and per-row bookkeeping included. What is left
// per item is the payload lists (one per window and per merge) and the
// windows' sampled emit times, and the control plane's per-interval summaries
// and sequence walks (0.18 at this scale, of which the lists are 0.07 and
// model.Sequence.Vertices/Edges copies 0.05); the job sat at 0.42 while
// the filter rebuilt its set with make(map) for every list and at 0.22
// while the topic counts were a map and the samples grew by doubling.
func TestTwitterSentimentAllocsPerItem(t *testing.T) {
	var items float64
	allocs := testing.AllocsPerRun(1, func() {
		cfg, probes, err := BuildTwitterSentiment(quickTSOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		items = float64(res.Emitted[TSSource])
	})
	perItem := allocs / items
	t.Logf("%.0f tweets, %.3f allocs/item", items, perItem)
	if perItem > 0.21 {
		t.Errorf("TwitterSentiment allocates %.3f allocs/item, want ≤ 0.21", perItem)
	}
}

// TestDenseTopicStateMatchesMaps pins the indexed per-topic state against
// the hash maps it replaced, on a fixed tweet stream cut into windows:
// the HotTopics lists (ties included — most topics of a window count 1 —
// and a topic beyond the sized span) and the Filter's membership answers
// must be the ones the map versions give.
func TestDenseTopicStateMatchesMaps(t *testing.T) {
	const topics, k = 200, 10
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.2, 1, topics-1)
	ht := &hotTopicsOp{k: k, counts: topicCounts{n: make([]int, topics)}}
	filter := &filterOp{hot: make([]bool, topics)}
	var mapScratch []topicWeight[int]
	for window := 0; window < 300; window++ {
		counts := make(map[uint64]int)
		for n := rng.Intn(120); n > 0; n-- {
			topic := zipf.Uint64()
			if rng.Intn(50) == 0 {
				topic = topics + uint64(rng.Intn(300)) // a replayed trace's stray topic
			}
			counts[topic]++
			ht.process(&tsMsg{kind: kindTweet, topic: topic}, nil)
		}
		want := topKKeys(counts, k, &mapScratch)
		var got []uint64
		ht.closeWindow(outboxFunc(func(m *tsMsg) { got = m.list }))
		if len(counts) > 0 && !slices.Equal(got, want) || len(counts) == 0 && got != nil {
			t.Fatalf("window %d: indexed counts rank %v, the map ranks %v", window, got, want)
		}

		filter.process(&tsMsg{kind: kindTopicList, list: want}, nil)
		set := make(map[uint64]struct{})
		for _, topic := range want {
			set[topic] = struct{}{}
		}
		for topic := uint64(0); topic < topics+400; topic++ {
			hot := topic < uint64(len(filter.hot)) && filter.hot[topic]
			if _, in := set[topic]; hot != in {
				t.Fatalf("window %d: topic %d hot = %v, the map says %v", window, topic, hot, in)
			}
		}
	}
	if len(ht.counts.seen) != 0 || slices.IndexFunc(ht.counts.n, func(n int) bool { return n != 0 }) >= 0 {
		t.Error("reset left counts behind")
	}
}

func TestScaleTwitterSentimentOptions(t *testing.T) {
	opts := DefaultTwitterSentimentOptions()
	scaled := ScaleTwitterSentimentOptions(opts, 4)
	if scaled.Sources != 2 || scaled.InitialHT != 1 || scaled.InitialSentiment != 2 || scaled.MaxElastic != 25 || scaled.WorkerNodes != 32 {
		t.Errorf("scaled counts: %+v", scaled)
	}
	if scaled.Schedule.BaseRate != opts.Schedule.BaseRate/4 || scaled.Schedule.Bursts[0].ExtraRate != opts.Schedule.Bursts[0].ExtraRate/4 {
		t.Errorf("scaled rates: %+v", scaled.Schedule)
	}
	// The original trace, bursts included, is untouched.
	if fresh := DefaultTweetTrace(); opts.Schedule.BaseRate != fresh.BaseRate || opts.Schedule.Bursts[0].ExtraRate != fresh.Bursts[0].ExtraRate {
		t.Error("scaling mutated the original schedule")
	}
	if same := ScaleTwitterSentimentOptions(opts, 1); same.Sources != opts.Sources || same.Schedule != opts.Schedule {
		t.Error("factor 1 must not scale")
	}
}
