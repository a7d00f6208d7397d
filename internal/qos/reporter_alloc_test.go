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
// store has grown to cover the value range).
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
	for i := range m.tasks.byID[task].reports {
		if got, want := m.tasks.byID[task].at(i).ServiceMean, n-2+float64(i); got != want {
			t.Errorf("task window[%d] = %v, want %v (newest three, oldest first)", i, got, want)
		}
	}
	if w := m.channels.byID[ch]; len(w.reports) != 3 || w.at(0).LatencyMean != n-2 || w.at(2).LatencyMean != n {
		t.Errorf("channel window = %+v from %d, want means %v..%v", w.reports, w.oldest, n-2, n)
	}
}

// TestHandleReportSteadyStateAllocFree is the same contract on the path
// the simulator takes, with a tail-tracked task: flush, report through the
// handle, and the queue-wait sketch comes back through the free list with
// its window — a whole measurement interval allocates nothing once warm.
// (The adjustment interval's vertex window is allocated: it leaves with
// the summary.)
func TestHandleReportSteadyStateAllocFree(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 3, EvictAfter: 10})
	id := model.TaskID{Vertex: "v", Index: 0}
	tr, th := NewTaskReporter(id), m.RegisterTask()
	tr.TrackQueueWait()
	chID := model.ChannelID{Edge: model.EdgeKey{Source: "a", Target: "v"}}
	cr, ch := NewChannelReporter(chID), m.RegisterChannel()
	now := 0.0
	interval := func() {
		for i := 1; i <= 50; i++ {
			now += 0.001
			tr.RecordArrival(now)
			tr.RecordService(0.0005)
			tr.RecordQueueWaitN(float64(i)*0.0001, 1)
			cr.RecordTransfer(0.002, 0.001)
		}
		rep := tr.Flush()
		th.Report(&rep)
		crep := cr.Flush()
		ch.Report(&crep)
	}
	for i := 0; i < 5; i++ {
		interval()
	}
	m.PartialSummary() // takes the window; the next interval starts one
	interval()
	if allocs := testing.AllocsPerRun(200, interval); allocs != 0 && !raceBuild {
		t.Errorf("a warm measurement interval allocates %.2f times, want 0", allocs)
	}
	if win := m.PartialSummary().Finalize(nil).Vertices["v"].WaitWindow; win.Count() != 50*202 {
		t.Errorf("window holds %d waits, want %d", win.Count(), 50*202)
	}
}
