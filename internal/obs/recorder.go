package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Recorder is a bounded, mutex-guarded ring buffer of structured
// events: the flight recorder. All methods are safe on a nil receiver
// (they do nothing), so runtimes wire it unconditionally and callers
// opt in by supplying a recorder.
type Recorder struct {
	mu   sync.Mutex
	seq  uint64
	buf  []Event
	next int
	full bool
}

// DefaultRecorderCapacity is the ring size used when NewRecorder is
// given a non-positive capacity.
const DefaultRecorderCapacity = 4096

// NewRecorder returns a recorder holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// record appends one event, assigning its sequence number.
func (r *Recorder) record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	if !r.full && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		if len(r.buf) == cap(r.buf) {
			r.full = true
		}
		return
	}
	r.full = true
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
}

// RecordDecision appends one scaling-decision event.
func (r *Recorder) RecordDecision(time float64, d *ScalingDecision) {
	if r == nil || d == nil {
		return
	}
	r.record(Event{Time: time, Kind: KindScalingDecision, Decision: d})
}

// RecordLifecycle appends one lifecycle event of the given kind.
func (r *Recorder) RecordLifecycle(time float64, kind string, lc Lifecycle) {
	if r == nil {
		return
	}
	r.record(Event{Time: time, Kind: kind, Lifecycle: &lc})
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever recorded (including those
// that have rotated out of the ring).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Events returns the buffered events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full && r.next > 0 {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// Decisions returns the buffered scaling-decision events, oldest first.
func (r *Recorder) Decisions() []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == KindScalingDecision {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL writes the buffered events as JSON Lines, oldest first.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
