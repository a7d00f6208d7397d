package qos

import (
	"sync"

	"nephelix/internal/metrics"
	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
)

// TaskReport is the per-measurement-interval aggregate a QoS reporter
// emits for one task: the sampled means (and coefficients of variation)
// of the task-level metrics of Table I.
type TaskReport struct {
	Task model.TaskID

	TaskLatencyCount int64
	TaskLatencyMean  float64

	ServiceCount int64
	ServiceMean  float64
	ServiceCV    float64

	InterarrivalCount int64
	InterarrivalMean  float64
	InterarrivalCV    float64

	// QueueWait is the interval's queue-wait distribution, nil unless the
	// reporter tracks it (TrackQueueWait). The report owns the sketch until
	// a manager takes the report: the manager merges it into the vertex
	// window and recycles it (see waitSketches), so it must not be read
	// after ReportTask.
	QueueWait *sketch.Sketch
}

// waitSketches is the free list queue-wait sketches cycle through:
// reporter (records an interval) → report → manager (merges, resets) →
// free list → the next Flush of any reporter. A recycled sketch keeps its
// bucket window, so a steady stream's intervals neither allocate nor
// grow one. Exactly one party holds a sketch at any time; the pool is
// what makes the hand-over safe between the engine's task goroutines
// and its manager goroutine.
var waitSketches = sync.Pool{New: func() any { return sketch.NewDefault() }}

// Empty reports whether the interval carried no measurements at all.
func (r *TaskReport) Empty() bool {
	return r.TaskLatencyCount == 0 && r.ServiceCount == 0 && r.InterarrivalCount == 0
}

// ChannelReport is the per-measurement-interval aggregate for one channel:
// sampled mean channel latency l_e and output batch latency obl_e.
type ChannelReport struct {
	Channel model.ChannelID

	LatencyCount int64
	LatencyMean  float64

	BatchLatencyCount int64
	BatchLatencyMean  float64
}

// Empty reports whether the interval carried no measurements.
func (r *ChannelReport) Empty() bool {
	return r.LatencyCount == 0 && r.BatchLatencyCount == 0
}

// TaskReporter instruments a single task. It is not safe for concurrent
// use: it is owned by the goroutine (or simulator event loop) executing
// the task. Latencies are recorded in seconds.
type TaskReporter struct {
	task model.TaskID
	// taskLatency is read for its mean only; a read-ready task leaves it
	// empty and reports its service time instead (ReadReady).
	taskLatency  metrics.Mean
	readReady    bool
	service      metrics.IntervalStats
	interarrival metrics.IntervalStats
	lastArrival  float64
	hasArrival   bool
	// wait is the interval's queue-wait sketch: the fit window of the
	// tail model. Nil for tasks of vertices under no percentile
	// constraint, which keeps their reports mean-only.
	wait *sketch.Sketch
}

// TrackQueueWait makes the reporter keep the distribution, not only the
// channel-level mean, of the queue waits handed to RecordQueueWaitN. The
// runtimes call it for tasks of TailVertices.
func (r *TaskReporter) TrackQueueWait() { r.wait = waitSketches.Get().(*sketch.Sketch) }

// ReadReady declares the task's UDF read-ready: its task latency is its
// service time, sample for sample, so Flush reports the one from the
// other and the caller records only the service time.
func (r *TaskReporter) ReadReady() { r.readReady = true }

// NewTaskReporter creates a reporter for the given task.
func NewTaskReporter(task model.TaskID) *TaskReporter {
	return &TaskReporter{task: task}
}

// RecordArrival notes that a data item was consumed at time now and
// derives the interarrival time from the previous arrival.
func (r *TaskReporter) RecordArrival(now float64) {
	if r.hasArrival {
		if d := now - r.lastArrival; d >= 0 {
			r.interarrival.Add(d)
		}
	}
	r.lastArrival = now
	r.hasArrival = true
}

// RecordService records one sampled service time (the time the task was
// busy with a data item, equal to read-ready task latency).
func (r *TaskReporter) RecordService(d float64) {
	if d >= 0 {
		r.service.Add(d)
	}
}

// RecordTaskLatency records one sampled task latency; for read-ready UDFs
// this equals the service time (see ReadReady), for read-write UDFs it is
// the consume-to-next-write time.
func (r *TaskReporter) RecordTaskLatency(d float64) {
	if d >= 0 {
		r.taskLatency.Add(d)
	}
}

// RecordArrivalN notes n arrivals spaced gap apart, the first at time
// first: the weighted form of RecordArrival for a caller that timed a
// group of items with one pair of clock reads. The interarrival chain
// continues from the group's last arrival, so the sum of interarrival
// samples — and with it the arrival rate — is what n single calls would
// have produced.
func (r *TaskReporter) RecordArrivalN(first, gap float64, n int) {
	if n <= 0 {
		return
	}
	r.RecordArrival(first)
	if n > 1 && gap >= 0 {
		r.interarrival.AddN(gap, int64(n-1))
		r.lastArrival = first + gap*float64(n-1)
	}
}

// RecordServiceN records n service times of d each.
func (r *TaskReporter) RecordServiceN(d float64, n int) {
	if d >= 0 && n > 0 {
		r.service.AddN(d, int64(n))
	}
}

// RecordTaskLatencyN records n task latencies of d each.
func (r *TaskReporter) RecordTaskLatencyN(d float64, n int) {
	if d >= 0 {
		r.taskLatency.AddN(d, int64(n))
	}
}

// RecordQueueWaitN records n queue waits of d each: the time a data item
// spent in the task's input queue before its service began. A no-op
// unless the reporter tracks queue waits.
func (r *TaskReporter) RecordQueueWaitN(d float64, n int) {
	if n > 0 {
		r.wait.AddN(d, uint64(n)) // nil-safe
	}
}

// Flush emits the interval report and resets the interval accumulators.
// The interarrival chain (time of last arrival) survives the flush so the
// first arrival of the next interval still yields a sample.
func (r *TaskReporter) Flush() TaskReport {
	rep := TaskReport{Task: r.task}
	rep.ServiceCount, rep.ServiceMean, rep.ServiceCV = r.service.Snapshot()
	if r.readReady {
		rep.TaskLatencyCount, rep.TaskLatencyMean = rep.ServiceCount, rep.ServiceMean
	} else {
		rep.TaskLatencyCount, rep.TaskLatencyMean = r.taskLatency.Take()
	}
	rep.InterarrivalCount, rep.InterarrivalMean, rep.InterarrivalCV = r.interarrival.Snapshot()
	if r.wait.Count() > 0 {
		// The report may outlive the interval on its way to the manager,
		// so it takes the sketch and the reporter continues on a free one.
		rep.QueueWait, r.wait = r.wait, waitSketches.Get().(*sketch.Sketch)
	}
	return rep
}

// ChannelReporter instruments a single channel. Like TaskReporter it is
// owned by one goroutine (the consumer side records transfers).
type ChannelReporter struct {
	channel      model.ChannelID
	latency      metrics.Mean
	batchLatency metrics.Mean
}

// NewChannelReporter creates a reporter for the given channel.
func NewChannelReporter(channel model.ChannelID) *ChannelReporter {
	return &ChannelReporter{channel: channel}
}

// RecordTransfer records one sampled item transfer: latency is the full
// channel latency (emit to consume), batchLatency the portion spent
// waiting in the producer's output buffer.
func (r *ChannelReporter) RecordTransfer(latency, batchLatency float64) {
	if latency >= 0 {
		r.latency.Add(latency)
	}
	if batchLatency >= 0 {
		r.batchLatency.Add(batchLatency)
	}
}

// Flush emits the interval report and resets the accumulators. An idle
// channel gets the zero report, which is Empty, without its id (two
// strings) being copied in.
func (r *ChannelReporter) Flush() (rep ChannelReport) {
	if r.latency.Count() == 0 && r.batchLatency.Count() == 0 {
		return rep
	}
	rep.Channel = r.channel
	rep.LatencyCount, rep.LatencyMean = r.latency.Take()
	rep.BatchLatencyCount, rep.BatchLatencyMean = r.batchLatency.Take()
	return rep
}
