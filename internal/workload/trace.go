package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The paper's TweetSource "replays JSON-encoded tweets at the correct
// historic rates or a multiple thereof" from a logged dataset. This file
// provides that substrate: JSONL tweet traces on disk, and a replay
// schedule that reconstructs the historic rate profile from the recorded
// timestamps, sped up by an arbitrary factor.

// ReadTweetTrace parses a JSONL tweet trace. Blank lines are skipped;
// malformed lines are an error.
func ReadTweetTrace(r io.Reader) ([]Tweet, error) {
	var tweets []Tweet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		t, err := DecodeTweet(line)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
		}
		tweets = append(tweets, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	return tweets, nil
}

// GenerateTweetTraceFile synthesizes a tweet dataset whose timestamps
// follow the given schedule and writes it to path. It stands in for the
// paper's 69 GB two-week crawl: a deterministic, rate-faithful corpus.
func GenerateTweetTraceFile(path string, sched Schedule, topics int, seed int64) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()

	gen := NewTweetGenerator(topics, 1.2, seed)
	bw := bufio.NewWriterSize(f, 1<<20)
	n := 0
	// Walk virtual time, drawing per-second counts from the schedule.
	for t := 0.0; t < sched.Duration(); {
		rate := sched.Rate(t)
		if rate <= 0 {
			t++
			continue
		}
		dt := 1.0 / rate
		burstTopic, w := 0, 0.0
		if ds, ok := sched.(*DiurnalSchedule); ok {
			burstTopic, w = ds.BurstWeight(t)
		}
		tw := gen.Next(int64(t*1000), burstTopic, w)
		line, err := tw.EncodeJSON()
		if err != nil {
			return n, err
		}
		if _, err := bw.Write(line); err != nil {
			return n, fmt.Errorf("workload: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return n, fmt.Errorf("workload: %w", err)
		}
		n++
		t += dt
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("workload: %w", err)
	}
	return n, nil
}

// TweetReplay replays a recorded tweet trace at its historic rates (or a
// multiple thereof): it implements Schedule by reconstructing the rate
// profile from the recorded timestamps and hands out tweets in timestamp
// order.
type TweetReplay struct {
	tweets []Tweet
	// speedup compresses historic time: 2 means twice the historic rate
	// and half the duration.
	speedup float64
	// startMS is the first tweet's timestamp.
	startMS int64
	// duration is the replay duration in (replay) seconds.
	duration float64
	// rates holds per-replay-second rate estimates.
	rates []float64
	// cursor tracks Next().
	cursor int
}

// NewTweetReplay builds a replay over the tweets at the given speedup
// (≥ 0; 0 or 1 replays at historic rates). Tweets are sorted by
// timestamp.
func NewTweetReplay(tweets []Tweet, speedup float64) (*TweetReplay, error) {
	if len(tweets) == 0 {
		return nil, fmt.Errorf("workload: empty tweet trace")
	}
	if speedup <= 0 {
		speedup = 1
	}
	sorted := make([]Tweet, len(tweets))
	copy(sorted, tweets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeMS < sorted[j].TimeMS })

	startMS := sorted[0].TimeMS
	endMS := sorted[len(sorted)-1].TimeMS
	historicSec := float64(endMS-startMS)/1000 + 1
	duration := historicSec / speedup

	// Per-replay-second histogram of tweet counts.
	buckets := int(math.Ceil(duration))
	if buckets < 1 {
		buckets = 1
	}
	rates := make([]float64, buckets)
	for i := range sorted {
		replayT := float64(sorted[i].TimeMS-startMS) / 1000 / speedup
		idx := int(replayT)
		if idx >= buckets {
			idx = buckets - 1
		}
		rates[idx]++
	}
	return &TweetReplay{
		tweets:   sorted,
		speedup:  speedup,
		startMS:  startMS,
		duration: duration,
		rates:    rates,
	}, nil
}

var _ Schedule = (*TweetReplay)(nil)

// Rate returns the historic tweet rate at replay time t, scaled by the
// speedup.
func (r *TweetReplay) Rate(t float64) float64 {
	if t < 0 || t >= r.duration {
		return 0
	}
	idx := int(t)
	if idx >= len(r.rates) {
		idx = len(r.rates) - 1
	}
	return r.rates[idx]
}

// Duration returns the replay duration in seconds.
func (r *TweetReplay) Duration() float64 { return r.duration }

// Len returns the number of tweets in the trace.
func (r *TweetReplay) Len() int { return len(r.tweets) }

// Next returns the next tweet in timestamp order, cycling back to the
// start when exhausted (sources may outpace the trace slightly). It
// advances a shared cursor and is not safe for concurrent use.
func (r *TweetReplay) Next() Tweet {
	t := r.tweets[r.cursor]
	r.cursor++
	if r.cursor >= len(r.tweets) {
		r.cursor = 0
	}
	return t
}

// PeakRate returns the highest per-second rate in the replay.
func (r *TweetReplay) PeakRate() (rate float64, atSecond int) {
	for i, v := range r.rates {
		if v > rate {
			rate, atSecond = v, i
		}
	}
	return rate, atSecond
}
