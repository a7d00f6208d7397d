package qos

import (
	"testing"

	"nephelix/internal/model"
)

// TestReporterFastPathAllocs pins the zero-allocation contract of the
// per-record reporter methods: the engine's data plane calls
// RecordArrival, RecordService and RecordTaskLatency once per record and
// RecordTransfer once per batch, so any allocation here multiplies by
// the stream rate. Only Flush (once per measurement interval) may
// allocate.
func TestReporterFastPathAllocs(t *testing.T) {
	tr := NewTaskReporter(model.TaskID{Vertex: "v", Index: 0})
	cr := NewChannelReporter(model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "b"}})

	now := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		now += 0.001
		tr.RecordArrival(now)
		tr.RecordService(0.0005)
		tr.RecordTaskLatency(0.0005)
		cr.RecordTransfer(0.002, 0.001)
	}); allocs != 0 {
		t.Errorf("reporter fast path allocates: %.2f allocs/record, want 0", allocs)
	}
}

// TestReporterTailFastPathAllocs pins the same contract with the
// queue-wait window tracked, in steady state (after the sketch's bucket
// store has grown to cover the value range). Flush allocates the next
// interval's sketch.
func TestReporterTailFastPathAllocs(t *testing.T) {
	tr := NewTaskReporter(model.TaskID{Vertex: "v", Index: 0})
	tr.TrackQueueWait()
	for i := 1; i <= 100; i++ {
		tr.RecordQueueWaitN(float64(i)*0.0001, 1)
	}

	now, i := 0.0, 0
	if allocs := testing.AllocsPerRun(1000, func() {
		now += 0.001
		i = (i % 100) + 1
		v := float64(i) * 0.0001
		tr.RecordArrival(now)
		tr.RecordService(v)
		tr.RecordTaskLatency(v)
		tr.RecordQueueWaitN(v, 1)
		tr.RecordQueueWaitN(v, 8)
	}); allocs != 0 {
		t.Errorf("window-tracking reporter fast path allocates: %.2f allocs/record, want 0", allocs)
	}
}

// TestManagerReportSteadyStateAllocFree pins the history windows: a task
// or channel that keeps reporting reuses the window it was created with
// (append-then-reslice walked the backing array forward and reallocated
// every few reports, forever), an idle channel's Flush is Empty, and the
// window still holds exactly the newest HistoryLength reports, oldest
// first.
func TestManagerReportSteadyStateAllocFree(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 3, EvictAfter: 10})
	task := model.TaskID{Vertex: "v", Index: 0}
	ch := model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "v"}}
	cr := NewChannelReporter(ch)
	n := 0.0
	report := func() {
		n++
		m.ReportTask(TaskReport{Task: task, ServiceCount: 1, ServiceMean: n})
		cr.RecordTransfer(n, n/2)
		m.ReportChannel(cr.Flush())
		m.ReportChannel(cr.Flush()) // idle by now
	}
	for i := 0; i < 3; i++ {
		report()
	}
	if allocs := testing.AllocsPerRun(1000, report); allocs != 0 {
		t.Errorf("steady-state reports allocate: %.2f allocs per interval, want 0", allocs)
	}
	if rep := cr.Flush(); !rep.Empty() || rep.Channel != (model.ChannelID{}) {
		t.Errorf("idle flush = %+v, want the zero report", rep)
	}
	for i, r := range m.tasks[task].reports {
		if want := n - 2 + float64(i); r.ServiceMean != want {
			t.Errorf("task window[%d] = %v, want %v (newest three, oldest first)", i, r.ServiceMean, want)
		}
	}
	if w := m.channels[ch].reports; len(w) != 3 || w[0].LatencyMean != n-2 || w[2].LatencyMean != n {
		t.Errorf("channel window = %+v, want means %v..%v", w, n-2, n)
	}
}
