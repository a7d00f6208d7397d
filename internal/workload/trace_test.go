package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTweets(n int, gapMS int64) []Tweet {
	g := NewTweetGenerator(20, 1.2, 1)
	out := make([]Tweet, n)
	for i := range out {
		out[i] = g.Next(int64(i)*gapMS, 0, 0)
	}
	return out
}

func TestTweetTraceRoundTrip(t *testing.T) {
	tweets := sampleTweets(200, 10)
	var buf bytes.Buffer
	for i := range tweets {
		line, err := tweets[i].EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	back, err := ReadTweetTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tweets) {
		t.Fatalf("round trip: %d tweets, want %d", len(back), len(tweets))
	}
	for i := range back {
		if back[i].ID != tweets[i].ID || back[i].Text != tweets[i].Text || back[i].TimeMS != tweets[i].TimeMS {
			t.Fatalf("tweet %d mismatch: %+v vs %+v", i, back[i], tweets[i])
		}
	}
}

func TestReadTweetTraceErrors(t *testing.T) {
	if _, err := ReadTweetTrace(strings.NewReader("{bad json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	// Blank lines are skipped.
	tweets, err := ReadTweetTrace(strings.NewReader("\n\n"))
	if err != nil || len(tweets) != 0 {
		t.Errorf("blank-only trace: %v, %d tweets", err, len(tweets))
	}
}

func TestGenerateTweetTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sched := &ConstantSchedule{RatePerSecond: 50, Length: 10}
	n, err := GenerateTweetTraceFile(path, sched, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n < 480 || n > 520 {
		t.Errorf("generated %d tweets, want ≈500", n)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tweets, err := ReadTweetTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) != n {
		t.Errorf("file holds %d tweets, want %d", len(tweets), n)
	}
	// Timestamps span the schedule.
	last := tweets[len(tweets)-1].TimeMS
	if last < 9000 || last > 10000 {
		t.Errorf("last timestamp %d ms, want ≈9900", last)
	}
}

func TestTweetReplayHistoricRates(t *testing.T) {
	// 100 tweets at 10/s for 5 s, then 50 tweets at 50/s for 1 s.
	var tweets []Tweet
	g := NewTweetGenerator(10, 1.2, 3)
	for i := 0; i < 50; i++ {
		tweets = append(tweets, g.Next(int64(i)*100, 0, 0)) // 10/s over 0..5 s
	}
	for i := 0; i < 50; i++ {
		tweets = append(tweets, g.Next(5000+int64(i)*20, 0, 0)) // 50/s over 5..6 s
	}
	r, err := NewTweetReplay(tweets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Duration()-6) > 1.5 {
		t.Errorf("duration: got %v, want ≈6 s", r.Duration())
	}
	if got := r.Rate(2); math.Abs(got-10) > 3 {
		t.Errorf("historic rate at 2 s: got %v, want ≈10", got)
	}
	if got := r.Rate(5.5); math.Abs(got-50) > 12 {
		t.Errorf("historic rate at 5.5 s: got %v, want ≈50", got)
	}
	peak, at := r.PeakRate()
	if peak < 40 || at != 5 {
		t.Errorf("peak: %v at %d s, want ≈50 at 5 s", peak, at)
	}
	if r.Rate(-1) != 0 || r.Rate(100) != 0 {
		t.Error("rates outside the replay must be 0")
	}
}

func TestTweetReplaySpeedup(t *testing.T) {
	tweets := sampleTweets(100, 100) // 10/s for 10 s
	r2, err := NewTweetReplay(tweets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Duration()-5) > 1 {
		t.Errorf("2× speedup duration: got %v, want ≈5 s", r2.Duration())
	}
	if got := r2.Rate(2); math.Abs(got-20) > 5 {
		t.Errorf("2× speedup rate: got %v, want ≈20/s", got)
	}
}

func TestTweetReplayNextOrderAndCycle(t *testing.T) {
	// Deliberately unsorted input.
	tweets := sampleTweets(10, 50)
	tweets[0], tweets[5] = tweets[5], tweets[0]
	r, err := NewTweetReplay(tweets, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for i := 0; i < r.Len(); i++ {
		tw := r.Next()
		if tw.TimeMS < last {
			t.Fatalf("tweets out of order at %d: %d < %d", i, tw.TimeMS, last)
		}
		last = tw.TimeMS
	}
	// Cycles back.
	if first := r.Next(); first.TimeMS > last {
		t.Errorf("cycle restart timestamp %d after %d", first.TimeMS, last)
	}
}

func TestTweetReplayEmpty(t *testing.T) {
	if _, err := NewTweetReplay(nil, 1); err == nil {
		t.Error("empty trace accepted")
	}
}
