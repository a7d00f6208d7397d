package workload

import (
	"strings"
	"testing"
)

func TestTweetJSONRoundTrip(t *testing.T) {
	in := Tweet{ID: 42, TimeMS: 1700000000000, Topics: []string{"#topic001"}, Text: "love this thing"}
	data, err := in.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTweet(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.TimeMS != in.TimeMS || out.Text != in.Text || len(out.Topics) != 1 {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestDecodeTweetInvalid(t *testing.T) {
	if _, err := DecodeTweet([]byte("{not json")); err == nil {
		t.Error("invalid JSON accepted")
	}
}

func TestTweetGeneratorDeterminism(t *testing.T) {
	a := NewTweetGenerator(100, 1.2, 7)
	b := NewTweetGenerator(100, 1.2, 7)
	for i := 0; i < 100; i++ {
		ta, tb := a.Next(int64(i), 0, 0), b.Next(int64(i), 0, 0)
		if ta.Text != tb.Text || ta.Topics[0] != tb.Topics[0] || ta.ID != tb.ID {
			t.Fatal("same seed must give identical tweets")
		}
	}
}

func TestTweetGeneratorZipfSkew(t *testing.T) {
	g := NewTweetGenerator(100, 1.2, 3)
	counts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		tw := g.Next(0, 0, 0)
		counts[tw.Topics[0]]++
	}
	// Topic 0 must dominate under a Zipf distribution.
	if counts[TopicName(0)] < counts[TopicName(5)] {
		t.Errorf("no Zipf skew: topic0=%d topic5=%d", counts[TopicName(0)], counts[TopicName(5)])
	}
	if counts[TopicName(0)] < 20000/4 {
		t.Errorf("head topic too rare for Zipf: %d of 20000", counts[TopicName(0)])
	}
}

func TestTweetGeneratorBurstConcentration(t *testing.T) {
	g := NewTweetGenerator(100, 1.2, 9)
	burstTopic := 37
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		tw := g.Next(0, burstTopic, 0.8)
		if tw.Topics[0] == TopicName(burstTopic) {
			hits++
		}
	}
	if hits < n*7/10 {
		t.Errorf("burst weight 0.8 produced only %d/%d burst-topic tweets", hits, n)
	}
}

func TestScoreSentiment(t *testing.T) {
	tests := []struct {
		text string
		want Sentiment
	}{
		{text: "love this awesome great day", want: SentimentPositive},
		{text: "hate this terrible awful day", want: SentimentNegative},
		{text: "today people think about things", want: SentimentNeutral},
		{text: "love and hate in balance", want: SentimentNeutral},
		{text: "LOVE!! this.", want: SentimentPositive}, // case and punctuation stripped
		{text: "", want: SentimentNeutral},
	}
	for _, tt := range tests {
		if got := ScoreSentiment(tt.text); got != tt.want {
			t.Errorf("ScoreSentiment(%q): got %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestGeneratedSentimentRecoverable(t *testing.T) {
	// Generated tweets must include all three polarities in bulk.
	g := NewTweetGenerator(10, 1.2, 11)
	seen := make(map[Sentiment]int)
	for i := 0; i < 3000; i++ {
		tw := g.Next(0, 0, 0)
		seen[ScoreSentiment(tw.Text)]++
	}
	for _, s := range []Sentiment{SentimentNegative, SentimentNeutral, SentimentPositive} {
		if seen[s] < 100 {
			t.Errorf("sentiment %v underrepresented: %d of 3000", s, seen[s])
		}
	}
}

func TestSentimentString(t *testing.T) {
	if SentimentPositive.String() != "positive" || SentimentNegative.String() != "negative" ||
		SentimentNeutral.String() != "neutral" || !strings.Contains(Sentiment(9).String(), "9") {
		t.Error("sentiment names wrong")
	}
}

func TestTopicName(t *testing.T) {
	if TopicName(7) != "#topic007" {
		t.Errorf("TopicName: got %q", TopicName(7))
	}
}

func TestTopicIndexRoundTrip(t *testing.T) {
	for _, idx := range []int{0, 7, 42, 999} {
		got, ok := TopicIndex(TopicName(idx))
		if !ok || got != idx {
			t.Errorf("TopicIndex(TopicName(%d)): got %d ok=%v", idx, got, ok)
		}
	}
	if _, ok := TopicIndex("#golang"); ok {
		t.Error("non-topic hashtag parsed")
	}
	if _, ok := TopicIndex(""); ok {
		t.Error("empty string parsed")
	}
	// TopicIndex is the exact inverse of TopicName: anything but the
	// prefix and ASCII digits is rejected.
	for _, name := range []string{"#topic", "#topic12abc", "#topic 7", "#topic+4", "#topic0x1f", "#topic-3", "#topic99999999999999999999"} {
		if idx, ok := TopicIndex(name); ok {
			t.Errorf("TopicIndex(%q) = %d, accepted", name, idx)
		}
	}
}
