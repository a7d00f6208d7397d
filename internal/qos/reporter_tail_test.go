package qos

import (
	"bytes"
	"math/rand"
	"testing"

	"nephelix/internal/metrics/sketch"
	"nephelix/internal/model"
)

// TestReporterTailTracking covers the queue-wait window on the task
// reporter: absent unless tracked, fed by RecordQueueWaitN, handed to the
// interval report by Flush and started afresh.
func TestReporterTailTracking(t *testing.T) {
	tr := NewTaskReporter(model.TaskID{Vertex: "v", Index: 0})
	tr.RecordService(0.01)
	tr.RecordQueueWaitN(0.02, 1)
	if rep := tr.Flush(); rep.QueueWait != nil {
		t.Fatal("an untracked reporter must flush mean-only reports")
	}

	tr.TrackQueueWait()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tr.RecordService(0.001)
		tr.RecordQueueWaitN(0.001+rng.Float64()*0.1, 1)
	}
	rep := tr.Flush()
	if got := rep.QueueWait.Count(); got != 500 {
		t.Fatalf("window count = %d, want 500 (pre-tracking samples excluded)", got)
	}
	if rep.QueueWait.Alpha() != sketch.DefaultAlpha {
		t.Fatalf("alpha = %v, want DefaultAlpha", rep.QueueWait.Alpha())
	}

	// The report owns its sketch: the next interval starts empty and
	// recording into it leaves the flushed window alone.
	tr.RecordService(0.001)
	if next := tr.Flush(); next.QueueWait != nil {
		t.Fatalf("interval without waits flushed a window of %d", next.QueueWait.Count())
	}
	tr.RecordQueueWaitN(0.5, 3)
	if rep.QueueWait.Count() != 500 {
		t.Fatal("recording after Flush reached the flushed window")
	}
	if next := tr.Flush(); next.QueueWait.Count() != 3 {
		t.Fatalf("second window count = %d, want 3", next.QueueWait.Count())
	}
}

// waitReports builds one interval report per task of vertex "v", each
// carrying its own slice of a shared random wait stream, and the sketch of
// the whole stream.
func waitReports(tasks, perTask int) ([]TaskReport, *sketch.Sketch) {
	whole := sketch.NewDefault()
	rng := rand.New(rand.NewSource(11))
	reps := make([]TaskReport, tasks)
	for i := range reps {
		tr := NewTaskReporter(model.TaskID{Vertex: "v", Index: i})
		tr.TrackQueueWait()
		for j := 0; j < perTask; j++ {
			w := 0.0005 + rng.Float64()*0.2
			tr.RecordService(0.001)
			tr.RecordQueueWaitN(w, 1)
			whole.Add(w)
		}
		reps[i] = tr.Flush()
	}
	return reps, whole
}

// TestWaitWindowAcrossManagers: the vertex window of the global summary
// is the same whether the tasks report to one manager or are spread over
// four, and equals the sketch of the concatenated stream.
func TestWaitWindowAcrossManagers(t *testing.T) {
	var windows [][]byte
	for _, managers := range []int{1, 4} {
		reps, whole := waitReports(8, 100)
		ms := make([]*Manager, managers)
		for i := range ms {
			ms[i] = NewManager(DefaultManagerConfig())
		}
		for i, r := range reps {
			ms[i%managers].ReportTask(r)
		}
		partials := make([]*PartialSummary, managers)
		for i, m := range ms {
			partials[i] = m.PartialSummary()
		}
		win := MergePartials(map[string]int{"v": 8}, partials...).Vertices["v"].WaitWindow
		if win.Count() != 800 || win.Quantile(0.99) != whole.Quantile(0.99) {
			t.Errorf("%d managers: window n=%d p99=%v, want n=800 p99=%v",
				managers, win.Count(), win.Quantile(0.99), whole.Quantile(0.99))
		}
		b, err := win.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, b)
		// Merging must not have written into the partials' own windows.
		again := MergePartials(map[string]int{"v": 8}, partials...).Vertices["v"].WaitWindow
		if again.Count() != 800 {
			t.Errorf("%d managers: second merge of the same partials counts %d", managers, again.Count())
		}
	}
	if !bytes.Equal(windows[0], windows[1]) {
		t.Error("1-manager and 4-manager windows differ")
	}
}

// TestWaitWindowIsOneInterval: a task that stopped reporting keeps
// contributing its mean history until it ages out, but its waits are in
// no window after the one they were reported in.
func TestWaitWindowIsOneInterval(t *testing.T) {
	m := NewManager(DefaultManagerConfig())
	reps, _ := waitReports(2, 50)
	m.ReportTask(reps[0])
	m.ReportTask(reps[1])
	if win := m.PartialSummary().Finalize(nil).Vertices["v"].WaitWindow; win.Count() != 100 {
		t.Fatalf("first window count = %d, want 100", win.Count())
	}

	// Task 1 crashed; only task 0 reports in the next interval.
	live := NewTaskReporter(model.TaskID{Vertex: "v", Index: 0})
	live.TrackQueueWait()
	live.RecordService(0.001)
	live.RecordQueueWaitN(0.004, 7)
	m.ReportTask(live.Flush())
	vs := m.PartialSummary().Finalize(nil).Vertices["v"]
	if vs.Tasks != 2 || vs.FreshTasks != 1 {
		t.Errorf("tasks=%d fresh=%d, want the stale history kept (2) and one fresh", vs.Tasks, vs.FreshTasks)
	}
	if vs.WaitWindow.Count() != 7 {
		t.Errorf("second window count = %d, want only the live task's 7", vs.WaitWindow.Count())
	}

	// No report at all: the vertex has means, but no window.
	if win := m.PartialSummary().Finalize(nil).Vertices["v"].WaitWindow; win != nil {
		t.Errorf("silent interval produced a window of %d", win.Count())
	}
}
