package apps

import (
	"context"
	"slices"
	"testing"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// outboxFunc is the operator tests' runtime: it hands every output to a
// function.
type outboxFunc func(m *tsMsg)

func (f outboxFunc) emit(m *tsMsg) { f(m) }

// collect returns an outbox that appends a copy of every output to *got.
func collect(got *[]tsMsg) outboxFunc { return func(m *tsMsg) { *got = append(*got, *m) } }

func TestHotTopicsWindowTopK(t *testing.T) {
	ht := &hotTopicsOp{k: 3, counts: topicCounts{n: make([]int, 8)}}
	var out []tsMsg
	ht.closeWindow(collect(&out))
	if len(out) != 0 {
		t.Fatalf("an empty window emitted %v", out)
	}
	// Topic 5 leads; 2, 4 and the stray 40 (beyond the sized span) tie at
	// two, broken by key; 7 trails.
	for _, topic := range []uint64{5, 2, 40, 5, 4, 7, 2, 40, 5, 4} {
		ht.process(&tsMsg{kind: kindTweet, topic: topic}, nil)
	}
	ht.closeWindow(collect(&out))
	if len(out) != 1 || out[0].kind != kindTopicList || !slices.Equal(out[0].list, []uint64{5, 2, 4}) {
		t.Fatalf("window list %+v, want one list [5 2 4]", out)
	}
	// The window closed: the next one starts from zero.
	ht.process(&tsMsg{kind: kindTweet, topic: 7}, nil)
	ht.closeWindow(collect(&out))
	if len(out) != 2 || !slices.Equal(out[1].list, []uint64{7}) {
		t.Fatalf("second window %+v, want [7]", out[1:])
	}
}

func TestMergerDecayAndPrune(t *testing.T) {
	m := &mergerOp{k: 3, counts: make(map[uint64]float64)}
	var out []tsMsg
	m.process(&tsMsg{kind: kindTopicList, list: []uint64{1, 2, 3}}, collect(&out))
	// Weights 3, 2, 1 decay to 2.7, 1.8, 0.9 before 4 arrives with 3.
	m.process(&tsMsg{kind: kindTopicList, list: []uint64{4}}, collect(&out))
	if len(out) != 2 || !slices.Equal(out[0].list, []uint64{1, 2, 3}) || !slices.Equal(out[1].list, []uint64{4, 1, 2}) {
		t.Fatalf("merged lists %+v, want [1 2 3] then [4 1 2]", out)
	}
	if w := m.counts[3]; w < 0.9-1e-12 || w > 0.9+1e-12 {
		t.Errorf("topic 3 weight %v, want 0.9 after one decay", w)
	}
	// Topic 3 (0.9) falls below 0.05 after 28 more decays; 4 is refreshed.
	for i := 0; i < 28; i++ {
		m.process(&tsMsg{kind: kindTopicList, list: []uint64{4}}, collect(&out))
	}
	if _, ok := m.counts[3]; ok {
		t.Errorf("topic 3 not pruned: %v", m.counts)
	}
	if _, ok := m.counts[1]; !ok {
		t.Errorf("topic 1 (2.7 · 0.9^28 ≥ 0.05) pruned early: %v", m.counts)
	}
}

func TestFilterRebuildsHotSetPerList(t *testing.T) {
	f := &filterOp{hot: make([]bool, 8)}
	var out []tsMsg
	send := func(topics ...uint64) []uint64 {
		out = out[:0]
		for _, topic := range topics {
			f.process(&tsMsg{kind: kindTweet, topic: topic, text: "x"}, collect(&out))
		}
		var passed []uint64
		for _, m := range out {
			passed = append(passed, m.topic)
		}
		return passed
	}
	if got := send(1, 2, 3); got != nil {
		t.Errorf("no hot list yet, passed %v", got)
	}
	f.process(&tsMsg{kind: kindTopicList, list: []uint64{1, 2}}, nil)
	if got := send(1, 2, 3, 100); !slices.Equal(got, []uint64{1, 2}) {
		t.Errorf("hot {1 2}: passed %v", got)
	}
	// The next list replaces the set; a stray topic grows it.
	f.process(&tsMsg{kind: kindTopicList, list: []uint64{3, 100}}, nil)
	if got := send(1, 2, 3, 100); !slices.Equal(got, []uint64{3, 100}) {
		t.Errorf("hot {3 100}: passed %v", got)
	}
	if len(out) == 0 || out[0].kind != kindTweet || out[0].text != "x" {
		t.Errorf("forwarded tweet changed: %+v", out)
	}
}

func TestSentimentAndSinkTally(t *testing.T) {
	sink := &sinkOp{tally: make([][3]int, 4)}
	for _, tw := range []tsMsg{
		{topic: 1, text: "love this great day"},
		{topic: 1, text: "what an awful terrible game"},
		{topic: 1, text: "love it"},
		{topic: 9, text: "just people"}, // beyond the sized span
	} {
		in := tw
		in.kind = kindTweet
		var out []tsMsg
		sentimentOp{}.process(&in, collect(&out))
		if len(out) != 1 || out[0].kind != kindScored || out[0].topic != tw.topic {
			t.Fatalf("sentiment of %q: %+v", tw.text, out)
		}
		sink.process(&out[0], nil)
	}
	if got := sink.tally[1]; got != [3]int{1, 0, 2} {
		t.Errorf("topic 1 tally (neg/neu/pos) %v, want [1 0 2]", got)
	}
	if got := sink.tally[9]; got != [3]int{0, 1, 0} {
		t.Errorf("topic 9 tally %v, want [0 1 0]", got)
	}
}

// crossRuntimeTweets is 2 s of tweets at 100/s cycling through a 20-tweet
// block — topic 1 eight times, 2 five times, 3 three times, 4–7 once —
// so any 20 consecutive tweets, and so every 200 ms window, rank the same
// top 3, far apart from each other and from the rest.
func crossRuntimeTweets() []workload.Tweet {
	block := []int{1, 2, 1, 3, 1, 2, 4, 1, 2, 1, 3, 5, 1, 2, 1, 6, 3, 2, 1, 7}
	texts := []string{"love it", "awful day", "just news"}
	tweets := make([]workload.Tweet, 200)
	for i := range tweets {
		tweets[i] = workload.Tweet{
			ID:     uint64(i + 1),
			TimeMS: int64(i) * 10,
			Topics: []string{workload.TopicName(block[i%len(block)])},
			Text:   texts[i%len(texts)],
		}
	}
	return tweets
}

// hotSet lists the topics a filter passes.
func hotSet(f *filterOp) []uint64 {
	var hot []uint64
	for topic, h := range f.hot {
		if h {
			hot = append(hot, uint64(topic))
		}
	}
	return hot
}

// TestTwitterSentimentCrossRuntime runs the one job definition on both
// runtimes — the simulator adapter in virtual time, the engine adapter on
// goroutines — over the same replay, and checks they agree: the Filter
// ends with the offline top k as its hot set, scored tweets reach the
// Sink, and both constrained paths record latencies.
func TestTwitterSentimentCrossRuntime(t *testing.T) {
	const k, window = 3, 20 // tweets per 200 ms window
	tweets := crossRuntimeTweets()
	var want []uint64
	for start := 0; start+window <= len(tweets); start++ {
		counts := make(map[uint64]int)
		for _, tw := range tweets[start : start+window] {
			counts[tweetTopic(tw)]++
		}
		top := topKKeys(counts, k+1, new([]topicWeight[int]))
		if counts[top[k-1]] <= counts[top[k]] || want != nil && !slices.Equal(top[:k], want) {
			t.Fatalf("tweets %d+%d rank %v (counts %v): the fixture must rank one top %d", start, window, top, counts, k)
		}
		want = top[:k]
	}
	slices.Sort(want)

	// build makes the job over a fresh replay and keeps the Filter and
	// Sink operators either runtime creates.
	var filters []*filterOp
	var sinks []*sinkOp
	build := func() *tsJob {
		replay, err := workload.NewTweetReplay(tweets, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultTwitterSentimentOptions()
		opts.Schedule, opts.Replay = nil, replay
		// Two source tasks: Emit runs concurrently on the shared replay.
		opts.Sources, opts.InitialHT, opts.InitialFilter, opts.InitialSentiment = 2, 1, 1, 1
		opts.Elastic = false
		opts.Topics, opts.HotK = 10, k
		opts.SampleProbability = 0.2
		j, err := newTSJob(opts)
		if err != nil {
			t.Fatal(err)
		}
		filters, sinks = nil, nil
		for i := range j.vertices {
			v := &j.vertices[i]
			newOp := v.newOp
			switch v.name {
			case TSFilter:
				v.newOp = func() tsOperator { op := newOp(); filters = append(filters, op.(*filterOp)); return op }
			case TSSink:
				v.newOp = func() tsOperator { op := newOp(); sinks = append(sinks, op.(*sinkOp)); return op }
			}
		}
		return j
	}
	check := func(layer string, hotCount, sentCount int64) {
		t.Helper()
		if len(filters) != 1 {
			t.Fatalf("%s: %d Filter tasks, want 1", layer, len(filters))
		}
		if got := hotSet(filters[0]); !slices.Equal(got, want) {
			t.Errorf("%s: final hot set %v, the replay's top %d is %v", layer, got, k, want)
		}
		scored := 0
		for _, s := range sinks {
			for _, n := range s.tally {
				scored += n[0] + n[1] + n[2]
			}
		}
		if scored == 0 {
			t.Errorf("%s: no scored tweet reached the Sink", layer)
		}
		if hotCount == 0 || sentCount == 0 {
			t.Errorf("%s: probes recorded %d hot-topics and %d sentiment latencies", layer, hotCount, sentCount)
		}
		t.Logf("%s: hot set %v, %d scored tweets, %d/%d probe samples", layer, hotSet(filters[0]), scored, hotCount, sentCount)
	}

	j := build()
	s, err := sim.New(j.simConfig(), j.probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	check("simulator", res.Probes[HotTopicsProbe].Count, res.Probes[SentimentProbe].Count)

	j = build()
	exec, err := engine.New(engine.Config{
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  500 * time.Millisecond,
		Seed:                1,
	}).Submit(j.engineSpec(), j.probes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	check("engine", j.probes.Probe(HotTopicsProbe).TotalCount(), j.probes.Probe(SentimentProbe).TotalCount())
}

func TestTwitterSentimentSpec(t *testing.T) {
	_, probes, err := TwitterSentimentSpec(quickTSOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The spec runs the job's graph (engineSpec wraps j.graph).
	j, err := newTSJob(quickTSOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g := j.graph; len(g.Vertices()) != 6 || len(g.Edges()) != 6 {
		t.Errorf("graph shape: %d vertices, %d edges", len(g.Vertices()), len(g.Edges()))
	}
	if probes.Probe(HotTopicsProbe).BoundSeconds != 0.215 || probes.Probe(SentimentProbe).BoundSeconds != 0.03 {
		t.Error("probe bounds not set")
	}
	opts := quickTSOptions()
	opts.Schedule = nil
	if _, _, err := TwitterSentimentSpec(opts); err == nil {
		t.Error("missing schedule and replay accepted")
	}
}
