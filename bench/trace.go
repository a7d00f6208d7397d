package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// (an engine record, a simulator adjustment interval) share ID; Parent
// names the span that caused this one ("" for a root). Times are
// nanoseconds since the traced pass began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	ID     uint64 `json:"id"`
}

// spanLog keeps a traced pass's spans in memory until the pass ends. A
// nil *spanLog is the untraced pass: every method is a no-op.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(name, parent string, id uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, Parent: parent, ID: id,
		Start: start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds(),
	})
}

// addNs records a span whose times are already offsets in nanoseconds.
func (l *spanLog) addNs(name, parent string, id uint64, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, ID: id, Start: start, End: end})
}

// timed runs fn inside a span.
func (l *spanLog) timed(name, parent string, id uint64, fn func()) {
	start := time.Now()
	fn()
	l.add(name, parent, id, start, time.Now())
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// tracePath is where a workload's spans go.
func tracePath(workload string) string {
	return filepath.Join("bench", "out", "trace-"+workload+".jsonl")
}
