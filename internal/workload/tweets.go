package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Tweet is a synthetic stand-in for the JSON-encoded tweets of the
// paper's 69 GB dataset. It carries the fields the TwitterSentiment job
// consumes: a timestamp, hashtag-like topics and a text body.
type Tweet struct {
	ID     uint64   `json:"id"`
	TimeMS int64    `json:"time_ms"`
	Topics []string `json:"topics"`
	Text   string   `json:"text"`
}

// EncodeJSON renders the tweet as a JSON line, as replayed from the
// dataset.
func (t *Tweet) EncodeJSON() ([]byte, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("workload: encoding tweet %d: %w", t.ID, err)
	}
	return b, nil
}

// DecodeTweet parses a JSON-encoded tweet.
func DecodeTweet(data []byte) (Tweet, error) {
	var t Tweet
	if err := json.Unmarshal(data, &t); err != nil {
		return Tweet{}, fmt.Errorf("workload: decoding tweet: %w", err)
	}
	return t, nil
}

// Word lists for synthetic tweet text. Positive and negative words carry
// sentiment; neutral words pad the text. The lexicon scorer below uses
// the same lists, so generated sentiment is recoverable by analysis.
var (
	positiveWords = []string{
		"love", "great", "awesome", "amazing", "happy", "excellent",
		"fantastic", "wonderful", "best", "beautiful", "brilliant", "win",
	}
	negativeWords = []string{
		"hate", "terrible", "awful", "horrible", "sad", "worst",
		"disappointing", "bad", "ugly", "broken", "angry", "fail",
	}
	neutralWords = []string{
		"today", "people", "think", "really", "just", "time", "going",
		"watch", "news", "about", "thing", "still", "very", "much",
	}
)

// TopicName renders a topic id as a hashtag.
func TopicName(topic int) string { return fmt.Sprintf("#topic%03d", topic) }

// TopicIndex parses a TopicName-formatted hashtag back into its id: the
// "#topic" prefix followed by ASCII digits only, nothing else.
func TopicIndex(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "#topic")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	idx, err := strconv.Atoi(digits)
	return idx, err == nil
}

// TweetGenerator synthesizes tweets with a Zipf-distributed topic
// popularity, random sentiment polarity and burst-topic concentration.
// It is deterministic for a fixed seed.
type TweetGenerator struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	nextID uint64
}

// NewTweetGenerator creates a generator over topicCount topics with
// Zipf(s) popularity (s > 1; 1.2 gives a realistic heavy tail).
func NewTweetGenerator(topicCount int, s float64, seed int64) *TweetGenerator {
	if topicCount < 1 {
		topicCount = 1
	}
	if s <= 1 {
		s = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	return &TweetGenerator{
		rng:  rng,
		zipf: rand.NewZipf(rng, s, 1, uint64(topicCount-1)),
	}
}

// Next generates one tweet at the given time. With probability
// burstWeight the tweet concerns burstTopic instead of a Zipf-drawn
// topic, modeling the paper's observation that the rate peak "seemed to
// affect one or very few topics".
func (g *TweetGenerator) Next(timeMS int64, burstTopic int, burstWeight float64) Tweet {
	g.nextID++
	topic := int(g.zipf.Uint64())
	if burstWeight > 0 && g.rng.Float64() < burstWeight {
		topic = burstTopic
	}
	topics := []string{TopicName(topic)}
	// ~20% of tweets mention a second topic.
	if g.rng.Float64() < 0.2 {
		topics = append(topics, TopicName(int(g.zipf.Uint64())))
	}
	return Tweet{
		ID:     g.nextID,
		TimeMS: timeMS,
		Topics: topics,
		Text:   g.text(),
	}
}

// text builds a 6–14 word body with a random polarity.
func (g *TweetGenerator) text() string {
	words := 6 + g.rng.Intn(9)
	polarity := g.rng.Intn(3) // 0 negative, 1 neutral, 2 positive
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		// Sentiment-bearing words appear with probability 1/3 for
		// non-neutral tweets.
		switch {
		case polarity == 2 && g.rng.Intn(3) == 0:
			b.WriteString(positiveWords[g.rng.Intn(len(positiveWords))])
		case polarity == 0 && g.rng.Intn(3) == 0:
			b.WriteString(negativeWords[g.rng.Intn(len(negativeWords))])
		default:
			b.WriteString(neutralWords[g.rng.Intn(len(neutralWords))])
		}
	}
	return b.String()
}

// Sentiment classifies text polarity.
type Sentiment int

const (
	// SentimentNegative marks predominantly negative text.
	SentimentNegative Sentiment = iota + 1
	// SentimentNeutral marks balanced or sentiment-free text.
	SentimentNeutral
	// SentimentPositive marks predominantly positive text.
	SentimentPositive
)

// String returns the sentiment name.
func (s Sentiment) String() string {
	switch s {
	case SentimentNegative:
		return "negative"
	case SentimentNeutral:
		return "neutral"
	case SentimentPositive:
		return "positive"
	default:
		return fmt.Sprintf("Sentiment(%d)", int(s))
	}
}

// sentimentLexicon maps words to polarity scores; built once from the
// word lists.
var sentimentLexicon = func() map[string]int {
	lex := make(map[string]int, len(positiveWords)+len(negativeWords))
	for _, w := range positiveWords {
		lex[w] = 1
	}
	for _, w := range negativeWords {
		lex[w] = -1
	}
	return lex
}()

// ScoreSentiment runs the lexicon scorer over the text, the stand-in for
// the paper's LingPipe classifier: it tokenizes, sums word polarities and
// thresholds the result.
func ScoreSentiment(text string) Sentiment {
	score := 0
	for _, w := range strings.Fields(text) {
		score += sentimentLexicon[strings.ToLower(strings.Trim(w, ".,!?#@"))]
	}
	switch {
	case score > 0:
		return SentimentPositive
	case score < 0:
		return SentimentNegative
	default:
		return SentimentNeutral
	}
}
