package apps

import (
	"math/rand"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/probe"
	"nephelix/internal/sim"
	"nephelix/internal/workload"
)

// The TwitterSentiment operators are written once, against a contract
// after Hazelcast Jet's processors: handle one input, hand outputs to an
// outbox, and (windowed operators only) close a window on a timer. The
// adapters simOperator and engineOperator own everything runtime-specific.

// tsMsg is one item as the operators see it.
type tsMsg struct {
	kind  uint8
	topic uint64             // a tweet's topic
	list  []uint64           // a topic list, hottest first
	text  string             // a tweet's body (simulated tweets have none)
	score workload.Sentiment // a scored tweet's polarity
}

// outbox takes an operator's outputs and is done with each when emit
// returns. Emitting the (rewritten) input forwards its latency sample.
type outbox interface{ emit(m *tsMsg) }

// tsOperator is one TwitterSentiment operator.
type tsOperator interface{ process(in *tsMsg, out outbox) }

// tsWindowed is an operator that also closes a window on a timer. Only
// its adapters are timer behaviours: the simulator draws a random timer
// phase per timer task, so any other timer would shift later draws.
type tsWindowed interface {
	tsOperator
	closeWindow(out outbox)
}

// hotTopicsOp is the HT task: it counts topics over a time window and
// emits the window's top-k list when the window closes (Section V-B1:
// "time-based window aggregation with 200 ms windows").
type hotTopicsOp struct {
	k       int
	counts  topicCounts
	scratch []topicWeight[int]
	out     tsMsg
}

func (o *hotTopicsOp) process(in *tsMsg, _ outbox) { o.counts.add(in.topic) }

func (o *hotTopicsOp) closeWindow(out outbox) {
	if len(o.counts.seen) == 0 {
		return
	}
	o.out = tsMsg{kind: kindTopicList, list: o.counts.top(o.k, &o.scratch)}
	o.counts.reset()
	out.emit(&o.out)
}

// mergerOp is the HTM task: it merges every received partial list into
// the global ranking and broadcasts the merged hot list immediately ("the
// HTM task merges all partial lists into a global one and broadcasts it
// to all Filter tasks" — the paper gives HTM no window of its own, and
// the reported latencies only fit a merge-on-receipt design). Older
// contributions decay multiplicatively so the global list tracks the HT
// windows.
type mergerOp struct {
	k       int
	counts  map[uint64]float64
	scratch []topicWeight[float64]
	out     tsMsg
}

// mergerDecay is the per-receipt decay of accumulated rank weight.
const mergerDecay = 0.9

func (o *mergerOp) process(in *tsMsg, out outbox) {
	for key, w := range o.counts {
		w *= mergerDecay
		if w < 0.05 {
			delete(o.counts, key)
			continue
		}
		o.counts[key] = w
	}
	for rank, key := range in.list {
		o.counts[key] += float64(o.k - rank) // rank-weighted merge
	}
	if len(o.counts) == 0 {
		return
	}
	o.out = tsMsg{kind: kindTopicList, list: topKKeys(o.counts, o.k, &o.scratch)}
	out.emit(&o.out)
}

// filterOp is the F task: it keeps the latest global hot list and
// forwards only tweets concerning a hot topic to the Sentiment vertex.
type filterOp struct{ hot []bool } // by topic

func (o *filterOp) process(in *tsMsg, out outbox) {
	if in.kind == kindTopicList {
		clear(o.hot)
		for _, topic := range in.list {
			o.hot = grow(o.hot, topic)
			o.hot[topic] = true
		}
		return
	}
	if in.topic < uint64(len(o.hot)) && o.hot[in.topic] {
		out.emit(in)
	}
}

// sentimentOp is the S task: it classifies the tweet's sentiment
// (LingPipe stand-in: the lexicon scorer).
type sentimentOp struct{}

func (sentimentOp) process(in *tsMsg, out outbox) {
	in.kind, in.score = kindScored, workload.ScoreSentiment(in.text)
	out.emit(in)
}

// sinkOp is the SI task: it tallies scored tweets per topic and polarity.
type sinkOp struct{ tally [][3]int } // by topic, then polarity − 1

func (o *sinkOp) process(in *tsMsg, _ outbox) {
	o.tally = grow(o.tally, in.topic)
	o.tally[in.topic][in.score-1]++
}

// grow extends s so that i indexes it (a replayed trace's stray topic).
func grow[T any](s []T, i uint64) []T {
	if i >= uint64(len(s)) {
		s = append(s, make([]T, i+1-uint64(len(s)))...)
	}
	return s
}

// topicCounts counts tweets per topic over one window: indexed by topic,
// with the topics it has seen listed, so a window costs what it saw.
type topicCounts struct {
	n    []int
	seen []uint64 // topics with n > 0
}

func (c *topicCounts) add(topic uint64) {
	c.n = grow(c.n, topic)
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

// byKind holds a per-input-kind property of a vertex.
type byKind[T any] [kindScored + 1]T

// serviceTime is a simulated UDF cost: mean · (lo + span·U[0,1)).
type serviceTime struct{ mean, lo, span float64 }

func (s *serviceTime) draw(rng *rand.Rand) float64 { return s.mean * (s.lo + s.span*rng.Float64()) }

// tsVertex is one operator vertex of the job, as both adapters run it.
type tsVertex struct {
	name  string
	newOp func() tsOperator
	// svc is the simulated service time per input kind.
	svc byKind[serviceTime]
	// ends holds the probe each input kind terminates, if any.
	ends byKind[*probe.Probe]
}

// simOperator runs an operator as a sim.Behavior. A tweet's topic is its
// Item.Key; a list's Key is the payloads token of the list and its samples.
type simOperator struct {
	op       tsOperator
	v        *tsVertex
	payloads *topicListPayloads
	ctx      *sim.TaskContext
	in       *sim.Item // the item in process (nil while a window closes)
	origins  []float64 // the sampled emit times of the list in process or the closing window
	msg      tsMsg
}

func (a *simOperator) ServiceTime(rng *rand.Rand, it *sim.Item) float64 {
	return a.v.svc[it.Kind].draw(rng)
}

func (a *simOperator) Process(ctx *sim.TaskContext, it *sim.Item) {
	kind := it.Kind
	a.ctx, a.in, a.origins = ctx, it, nil
	a.msg = tsMsg{kind: kind, topic: it.Key, score: workload.SentimentNeutral} // tweets here have no text
	if kind == kindTopicList {
		l := a.payloads.get(it.Key)
		a.msg.list, a.origins = l.list, l.origins
	}
	a.op.process(&a.msg, a)
	switch end := a.v.ends[kind]; {
	case end == nil:
	case kind == kindTopicList:
		for _, origin := range a.origins {
			end.Record(ctx.Now() - origin)
		}
	case it.Sampled:
		end.Record(ctx.Now() - it.EmitTime)
	}
}

func (a *simOperator) emit(m *tsMsg) {
	if m.kind != kindTopicList { // the input tweet, forwarded or scored
		a.in.Kind, a.in.Size = m.kind, itemBytes[m.kind]
		a.ctx.Emit(0, a.in)
		return
	}
	out := sim.Item{EmitTime: a.ctx.Now(), Size: itemBytes[kindTopicList], Kind: kindTopicList,
		Key: a.payloads.put(m.list, a.origins), Sampled: len(a.origins) > 0}
	a.ctx.Emit(0, &out)
}

// maxOrigins caps the sampled emit times one window's list carries.
const maxOrigins = 32

// simWindow runs a windowed operator — the job's only sim.TimerBehavior.
type simWindow struct {
	*simOperator
	win     tsWindowed
	window  float64
	samples []float64 // the open window's sampled emit times: read-write latency across it
}

var _ sim.TimerBehavior = (*simWindow)(nil)

func (w *simWindow) Process(ctx *sim.TaskContext, it *sim.Item) {
	w.simOperator.Process(ctx, it)
	if it.Sampled && len(w.samples) < maxOrigins {
		if w.samples == nil {
			w.samples = make([]float64, 0, 8) // a typical window's samples; leaves with its list
		}
		w.samples = append(w.samples, it.EmitTime)
	}
}

func (w *simWindow) TimerInterval() float64 { return w.window }

func (w *simWindow) OnTimer(ctx *sim.TaskContext) {
	w.ctx, w.in, w.origins, w.samples = ctx, nil, w.samples, nil
	w.win.closeWindow(w.simOperator)
}

// topicListPayloads carries full top-k lists out of band, keyed by a
// token stored in Item.Key: items stay small while behaviors exchange
// real list contents. One instance exists per job build (the simulator is
// single-threaded). Entries older than the eviction window are dropped;
// broadcast consumers read within a fraction of a second, far inside the
// window.
type topicListPayloads struct {
	next  uint64
	lists map[uint64]topicList
}

// topicList is one payload: a list and the sampled emit times of the
// tweets it was counted from, which its consumers' probes read.
type topicList struct {
	list    []uint64
	origins []float64
}

// payloadWindow bounds the number of outstanding list payloads.
const payloadWindow = 8192

func newTopicListPayloads() *topicListPayloads {
	return &topicListPayloads{lists: make(map[uint64]topicList)}
}

// put stores a list and its samples and returns their token.
func (p *topicListPayloads) put(list []uint64, origins []float64) uint64 {
	p.next++
	p.lists[p.next] = topicList{list, origins}
	if p.next > payloadWindow {
		delete(p.lists, p.next-payloadWindow)
	}
	return p.next
}

// get reads a list without consuming it (broadcast edges deliver the same
// token to many consumers).
func (p *topicListPayloads) get(token uint64) topicList {
	return p.lists[token]
}

// engineOperator runs an operator as an engine.UDF. A record's Value is
// its tsMsg; a list's sample is its window's oldest sampled EmitTime.
type engineOperator struct {
	op  tsOperator
	v   *tsVertex
	ctx *engine.Context
	in  engine.Record // the record in process, or a closing window's sample
	msg tsMsg
}

func (a *engineOperator) Process(ctx *engine.Context, rec engine.Record) {
	a.ctx, a.in, a.msg = ctx, rec, rec.Value.(tsMsg)
	end := a.v.ends[a.msg.kind]
	a.op.process(&a.msg, a)
	if end != nil && rec.Sampled {
		end.Record(time.Since(rec.EmitTime).Seconds())
	}
}

func (a *engineOperator) emit(m *tsMsg) {
	out := a.in
	out.Value = *m
	a.ctx.Emit(0, out)
}

// engineWindow runs a windowed operator — the job's only engine.TimerUDF.
type engineWindow struct {
	*engineOperator
	win    tsWindowed
	window time.Duration
	sample engine.Record // the window's oldest sampled emit time
}

var _ engine.TimerUDF = (*engineWindow)(nil)

func (w *engineWindow) Process(ctx *engine.Context, rec engine.Record) {
	w.engineOperator.Process(ctx, rec)
	if rec.Sampled && (!w.sample.Sampled || rec.EmitTime.Before(w.sample.EmitTime)) {
		w.sample = engine.Record{EmitTime: rec.EmitTime, Sampled: true}
	}
}

func (w *engineWindow) TimerInterval() time.Duration { return w.window }

func (w *engineWindow) OnTimer(ctx *engine.Context) {
	w.ctx, w.in, w.sample = ctx, w.sample, engine.Record{}
	w.win.closeWindow(w.engineOperator)
}
