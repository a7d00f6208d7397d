package qos

import (
	"slices"
	"strings"

	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
)

// ManagerConfig configures a QoS manager.
type ManagerConfig struct {
	// HistoryLength is m, the number of past measurement-interval reports
	// averaged per task/channel (Equation 2). With a 1 s measurement
	// interval and a 5 s adjustment interval the paper's setup corresponds
	// to m = 5.
	HistoryLength int
	// EvictAfter is the number of consecutive adjustment intervals without
	// any report after which a task's or channel's history is dropped
	// (tasks removed by scale-down stop reporting).
	EvictAfter int
}

// DefaultManagerConfig returns the configuration matching the paper's
// evaluation setup.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{HistoryLength: 5, EvictAfter: 3}
}

func (c *ManagerConfig) sanitize() {
	if c.HistoryLength <= 0 {
		c.HistoryLength = 5
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3
	}
}

// history is the window of the newest interval reports of one task or
// channel — a ring, so a report costs one store — listed, in its set's
// summation order and by id, from its first non-empty report until it
// ages out or is forgotten; a later report lists it again, empty.
type history[ID comparable, R any] struct {
	set     *historySet[ID, R]
	id      ID
	key     string // channels: id.String(), rendered when first compared
	reports []R    // len <= HistoryLength; once full, reports[oldest] is the oldest
	oldest  int
	idle    int // adjustment intervals without a non-empty report
	listed  bool
}

type (
	taskHistory    = history[model.TaskID, TaskReport]
	channelHistory = history[model.ChannelID, ChannelReport]
)

// TaskHandle is a task reporter's registration with a manager
// (RegisterTask): it finds the task's history once, at the first report
// that carries data, and reports into it without a lookup from then on.
// A reporter reports through its handle or by id (ReportTask), not both.
type TaskHandle struct {
	m *Manager
	h *taskHistory
}

// ChannelHandle is a channel reporter's registration (RegisterChannel).
type ChannelHandle struct {
	m *Manager
	h *channelHistory
}

// historySet is a manager's listed histories of one kind, in the order
// PartialSummary sums them — so floating-point accumulation is the same
// in every run — and by id.
type historySet[ID comparable, R any] struct {
	cfg     ManagerConfig
	list    []*history[ID, R]
	byID    map[ID]*history[ID, R]
	compare func(a, b *history[ID, R]) int
	agedOut int64
}

// get returns the listed history of id, or a new unlisted one.
func (s *historySet[ID, R]) get(id ID) *history[ID, R] {
	if h := s.byID[id]; h != nil {
		return h
	}
	return &history[ID, R]{set: s, id: id}
}

// add puts *r into the window, dropping the oldest report from a full
// one, and lists the history if it is not.
func (h *history[ID, R]) add(r *R) {
	s := h.set
	if !h.listed {
		h.listed = true
		i, _ := slices.BinarySearchFunc(s.list, h, s.compare)
		s.list = slices.Insert(s.list, i, h)
		s.byID[h.id] = h
	}
	h.idle = 0
	switch max := s.cfg.HistoryLength; {
	case h.reports == nil:
		h.reports = append(make([]R, 0, max), *r)
	case len(h.reports) < max:
		h.reports = append(h.reports, *r)
	default:
		h.reports[h.oldest] = *r
		h.oldest = (h.oldest + 1) % max
	}
}

// at returns the k-th report of the window, oldest first.
func (h *history[ID, R]) at(k int) *R { return &h.reports[(h.oldest+k)%len(h.reports)] }

// forget unlists the history and empties it.
func (h *history[ID, R]) forget() {
	if s := h.set; h.listed {
		i, _ := slices.BinarySearchFunc(s.list, h, s.compare)
		s.list = slices.Delete(s.list, i, i+1)
		h.unlist()
	}
}

// unlist empties the history, window included (most histories that age
// out never return); the caller takes it off the list.
func (h *history[ID, R]) unlist() {
	delete(h.set.byID, h.id)
	h.reports, h.oldest, h.idle, h.listed = nil, 0, 0, false
}

// ageOut increments idle counters and evicts long-idle histories.
func (s *historySet[ID, R]) ageOut() {
	s.list = slices.DeleteFunc(s.list, func(h *history[ID, R]) bool {
		if h.idle++; h.idle <= s.cfg.EvictAfter {
			return false
		}
		h.unlist()
		s.agedOut++
		return true
	})
}

// Tasks are summed by (vertex, index), channels by the string form of
// their id ("a[10]->b[2]" before "a[2]->b[10]").
func compareTasks(a, b *taskHistory) int {
	if c := strings.Compare(a.id.Vertex, b.id.Vertex); c != 0 {
		return c
	}
	return a.id.Index - b.id.Index
}

func compareChannels(a, b *channelHistory) int {
	for _, h := range [2]*channelHistory{a, b} {
		if h.key == "" {
			h.key = h.id.String()
		}
	}
	return strings.Compare(a.key, b.key)
}

// Manager is a QoS manager: it receives the interval reports of the QoS
// reporters assigned to it, keeps a short history per task and channel,
// and produces a partial summary once per adjustment interval
// (Section IV-B). It is not safe for concurrent use; callers serialize
// access (the engine runs one manager goroutine, the simulator is
// single-threaded).
type Manager struct {
	tasks    historySet[model.TaskID, TaskReport]
	channels historySet[model.ChannelID, ChannelReport]
	// waits is the current adjustment interval's queue-wait window per
	// vertex, merged from the task reports that carry one; the next
	// PartialSummary takes it. Unlike the mean histories it holds no
	// earlier interval, so a task that stopped reporting adds nothing.
	waits map[string]*sketch.Sketch
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg ManagerConfig) *Manager {
	cfg.sanitize()
	m := &Manager{}
	m.tasks = historySet[model.TaskID, TaskReport]{cfg: cfg, byID: make(map[model.TaskID]*taskHistory), compare: compareTasks}
	m.channels = historySet[model.ChannelID, ChannelReport]{cfg: cfg, byID: make(map[model.ChannelID]*channelHistory), compare: compareChannels}
	return m
}

// RegisterTask returns the handle a task's reporter reports through.
func (m *Manager) RegisterTask() TaskHandle { return TaskHandle{m: m} }

// RegisterChannel returns the handle a channel's reporter reports through.
func (m *Manager) RegisterChannel() ChannelHandle { return ChannelHandle{m: m} }

// Report folds one task interval report into the manager's history.
// Empty reports are ignored (the task saw no data this interval).
func (h *TaskHandle) Report(r *TaskReport) {
	if h.h == nil {
		if r.QueueWait == nil && r.Empty() {
			return
		}
		h.h = h.m.tasks.get(r.Task)
	}
	h.m.reportTask(h.h, r)
}

// Forget drops the task's history (e.g. after scale-down removed it).
func (h *TaskHandle) Forget() {
	if h.h != nil {
		h.h.forget()
		h.h = nil
	}
}

// reportTask merges the report's queue-wait sketch, if any, into the
// vertex window and recycles it; the history keeps means only.
func (m *Manager) reportTask(h *taskHistory, r *TaskReport) {
	id := h.id
	if w := r.QueueWait; w != nil {
		if m.waits == nil {
			m.waits = make(map[string]*sketch.Sketch)
		}
		win := m.waits[id.Vertex]
		if win == nil {
			// The window leaves with the summary, whose readers may keep
			// it: it is never a recycled sketch.
			win = sketch.NewDefault()
			m.waits[id.Vertex] = win
		}
		win.Merge(w)
		w.Reset()
		waitSketches.Put(w)
		r.QueueWait = nil
	}
	if !r.Empty() {
		h.add(r)
	}
}

// Report folds one channel interval report into the history.
func (h *ChannelHandle) Report(r *ChannelReport) {
	if r.Empty() {
		return
	}
	if h.h == nil {
		h.h = h.m.channels.get(r.Channel)
	}
	h.h.add(r)
}

// Forget drops the channel's history.
func (h *ChannelHandle) Forget() {
	if h.h != nil {
		h.h.forget()
		h.h = nil
	}
}

// ReportTask is Report for a reporter that never registered (the
// engine's report channel): the history is found by id every time.
func (m *Manager) ReportTask(r TaskReport) {
	h := TaskHandle{m: m}
	h.Report(&r)
}

// ReportChannel is the by-id form of ChannelHandle.Report.
func (m *Manager) ReportChannel(r ChannelReport) {
	h := ChannelHandle{m: m}
	h.Report(&r)
}

// PartialSummary aggregates the current histories into a partial summary
// (one entry per job vertex / job edge, averaged over the tasks and
// channels this manager observes) and ages out idle histories.
func (m *Manager) PartialSummary() *PartialSummary {
	p := NewPartialSummary()
	// Neighbours in the summation order mostly share their vertex or edge:
	// its accumulator is looked up when it changes, not per history.
	var vp *vertexPartial
	for i, h := range m.tasks.list { // a listed history holds at least one report
		if i == 0 || h.id.Vertex != m.tasks.list[i-1].id.Vertex {
			vp = p.vertex(h.id.Vertex)
		}
		var (
			latSum, latN  float64
			svcSum, svcCV float64
			svcN          float64
			arrSum, arrCV float64
			arrN          float64
			samples       int64
		)
		for k := range h.reports {
			r := h.at(k)
			if r.TaskLatencyCount > 0 {
				latSum += r.TaskLatencyMean
				latN++
			}
			if r.ServiceCount > 0 {
				svcSum += r.ServiceMean
				svcCV += r.ServiceCV
				svcN++
			}
			if r.InterarrivalCount > 0 {
				arrSum += r.InterarrivalMean
				arrCV += r.InterarrivalCV
				arrN++
			}
			samples += r.TaskLatencyCount + r.ServiceCount + r.InterarrivalCount
		}
		var lat, svc, scv, arr, acv float64
		if latN > 0 {
			lat = latSum / latN
		}
		if svcN > 0 {
			svc = svcSum / svcN
			scv = svcCV / svcN
		}
		if arrN > 0 {
			arr = arrSum / arrN
			acv = arrCV / arrN
		}
		vp.addTask(lat, svc, scv, arr, acv, samples)
		// idle is reset on every report and incremented once per
		// adjustment interval by ageOut, so idle == 0 means the task
		// reported within the current interval.
		if h.idle == 0 {
			vp.freshCount++
		}
	}
	var ep *edgePartial
	for i, h := range m.channels.list {
		if i == 0 || h.id.Edge != m.channels.list[i-1].id.Edge {
			ep = p.edge(h.id.Edge)
		}
		var latSum, latN, oblSum, oblN float64
		var samples int64
		for k := range h.reports {
			r := h.at(k)
			if r.LatencyCount > 0 {
				latSum += r.LatencyMean
				latN++
			}
			if r.BatchLatencyCount > 0 {
				oblSum += r.BatchLatencyMean
				oblN++
			}
			samples += r.LatencyCount
		}
		if latN == 0 && oblN == 0 {
			continue
		}
		var lat, obl float64
		if latN > 0 {
			lat = latSum / latN
		}
		if oblN > 0 {
			obl = oblSum / oblN
		}
		ep.addChannel(lat, obl, samples)
		if h.idle == 0 {
			ep.freshCount++
		}
	}
	p.waits, m.waits = m.waits, nil
	m.tasks.ageOut()
	m.channels.ageOut()
	return p
}

// MergePartials merges any number of partial summaries and finalizes them
// into a global summary using the authoritative parallelism map. This is
// the master-node side of the summary pipeline.
func MergePartials(parallelism map[string]int, partials ...*PartialSummary) *Summary {
	merged := NewPartialSummary()
	for _, p := range partials {
		if p != nil {
			merged.Merge(p)
		}
	}
	return merged.Finalize(parallelism)
}
