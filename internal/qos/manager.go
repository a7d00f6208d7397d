package qos

import (
	"sort"

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

// taskHistory is the rolling window of recent interval reports for one
// task.
type taskHistory struct {
	reports []TaskReport // oldest first; len <= HistoryLength (see slide)
	idle    int          // adjustment intervals without a non-empty report
}

// slide appends *r to a window of at most max reports, oldest first. A
// full window shifts down in place, so the backing array its history
// was created with serves it for life.
func slide[R any](w []R, r *R, max int) []R {
	if len(w) < max {
		return append(w, *r)
	}
	copy(w, w[1:])
	w[len(w)-1] = *r
	return w
}

// channelHistory is the rolling window of recent interval reports for one
// channel.
type channelHistory struct {
	id model.ChannelID
	// key is id.String(), rendered once: PartialSummary iterates channels
	// in the order of this string.
	key     string
	reports []ChannelReport
	idle    int
}

// Manager is a QoS manager: it receives the interval reports of the QoS
// reporters assigned to it, keeps a short history per task and channel,
// and produces a partial summary once per adjustment interval
// (Section IV-B). It is not safe for concurrent use; callers serialize
// access (the engine runs one manager goroutine, the simulator is
// single-threaded).
type Manager struct {
	cfg             ManagerConfig
	tasks           map[model.TaskID]*taskHistory
	channels        map[model.ChannelID]*channelHistory
	agedOutTasks    int64
	agedOutChannels int64
	// waits is the current adjustment interval's queue-wait window per
	// vertex, merged from the task reports that carry one; the next
	// PartialSummary takes it. Unlike the mean histories it holds no
	// earlier interval, so a task that stopped reporting adds nothing.
	waits map[string]*sketch.Sketch
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg ManagerConfig) *Manager {
	cfg.sanitize()
	return &Manager{
		cfg:      cfg,
		tasks:    make(map[model.TaskID]*taskHistory),
		channels: make(map[model.ChannelID]*channelHistory),
	}
}

// ReportTask folds one task interval report into the manager's history.
// Empty reports are ignored (the task saw no data this interval).
func (m *Manager) ReportTask(r TaskReport) {
	if r.QueueWait != nil {
		if m.waits == nil {
			m.waits = make(map[string]*sketch.Sketch)
		}
		if w := m.waits[r.Task.Vertex]; w != nil {
			w.Merge(r.QueueWait)
		} else {
			m.waits[r.Task.Vertex] = r.QueueWait
		}
		r.QueueWait = nil // the history below keeps means only
	}
	if r.Empty() {
		return
	}
	h := m.tasks[r.Task]
	if h == nil {
		h = &taskHistory{reports: make([]TaskReport, 0, m.cfg.HistoryLength)}
		m.tasks[r.Task] = h
	}
	h.reports = slide(h.reports, &r, m.cfg.HistoryLength)
	h.idle = 0
}

// ReportChannel folds one channel interval report into the history.
func (m *Manager) ReportChannel(r ChannelReport) {
	if r.Empty() {
		return
	}
	h := m.channels[r.Channel]
	if h == nil {
		h = &channelHistory{id: r.Channel, key: r.Channel.String(), reports: make([]ChannelReport, 0, m.cfg.HistoryLength)}
		m.channels[r.Channel] = h
	}
	h.reports = slide(h.reports, &r, m.cfg.HistoryLength)
	h.idle = 0
}

// Forget drops the history of a task (e.g. after scale-down removed it).
func (m *Manager) Forget(task model.TaskID) { delete(m.tasks, task) }

// ForgetChannel drops the history of a channel.
func (m *Manager) ForgetChannel(ch model.ChannelID) { delete(m.channels, ch) }

// AgedOut returns how many task and channel histories ageOut has evicted
// since the manager was created. Histories age out when their reporter
// stops reporting — scale-down is the benign cause, a crashed task the
// malign one — so a climbing counter with stable parallelism is the
// observable symptom of dead reporters.
func (m *Manager) AgedOut() (tasks, channels int64) {
	return m.agedOutTasks, m.agedOutChannels
}

// TrackedTasks returns the number of tasks with live history.
func (m *Manager) TrackedTasks() int { return len(m.tasks) }

// TrackedChannels returns the number of channels with live history.
func (m *Manager) TrackedChannels() int { return len(m.channels) }

// PartialSummary aggregates the current histories into a partial summary
// (one entry per job vertex / job edge, averaged over the tasks and
// channels this manager observes) and ages out idle histories.
// Iteration is in sorted id order so that floating-point accumulation is
// deterministic across runs.
func (m *Manager) PartialSummary() *PartialSummary {
	p := NewPartialSummary()
	taskIDs := make([]model.TaskID, 0, len(m.tasks))
	for id := range m.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Slice(taskIDs, func(i, j int) bool {
		if taskIDs[i].Vertex != taskIDs[j].Vertex {
			return taskIDs[i].Vertex < taskIDs[j].Vertex
		}
		return taskIDs[i].Index < taskIDs[j].Index
	})
	for _, id := range taskIDs {
		h := m.tasks[id]
		if len(h.reports) == 0 {
			continue
		}
		var (
			latSum, latN   float64
			svcSum, svcCV  float64
			svcN           float64
			arrSum, arrCV  float64
			arrN           float64
			samples        int64
			taskContribute bool
		)
		for i := range h.reports {
			r := &h.reports[i]
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
			taskContribute = true
		}
		if !taskContribute {
			continue
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
		p.AddTask(id.Vertex, lat, svc, scv, arr, acv, samples)
		// idle is reset on every report and incremented once per
		// adjustment interval by ageOut, so idle == 0 means the task
		// reported within the current interval.
		if h.idle == 0 {
			p.MarkTaskFresh(id.Vertex)
		}
	}
	for _, h := range m.sortedChannels() {
		if len(h.reports) == 0 {
			continue
		}
		var latSum, latN, oblSum, oblN float64
		var samples int64
		for i := range h.reports {
			r := &h.reports[i]
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
		p.AddChannel(h.id.Edge, lat, obl, samples)
		if h.idle == 0 {
			p.MarkChannelFresh(h.id.Edge)
		}
	}
	p.waits, m.waits = m.waits, nil
	m.ageOut()
	return p
}

// sortedChannels returns the channel histories ordered by the string
// form of their ids ("a[10]->b[2]" before "a[2]->b[10]"): the order the
// summary's floating-point sums have always been accumulated in.
func (m *Manager) sortedChannels() []*channelHistory {
	chans := make([]*channelHistory, 0, len(m.channels))
	for _, h := range m.channels {
		chans = append(chans, h)
	}
	sort.Slice(chans, func(i, j int) bool { return chans[i].key < chans[j].key })
	return chans
}

// ageOut increments idle counters and evicts long-idle histories.
func (m *Manager) ageOut() {
	for id, h := range m.tasks {
		h.idle++
		if h.idle > m.cfg.EvictAfter {
			delete(m.tasks, id)
			m.agedOutTasks++
		}
	}
	for id, h := range m.channels {
		h.idle++
		if h.idle > m.cfg.EvictAfter {
			delete(m.channels, id)
			m.agedOutChannels++
		}
	}
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
