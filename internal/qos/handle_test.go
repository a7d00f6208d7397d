package qos

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"nephelix/internal/model"
)

// renderPartial finalizes a partial summary and prints every figure of it
// exactly (shortest round-tripping floats; windows as their bytes).
func renderPartial(t *testing.T, p *PartialSummary) string {
	t.Helper()
	s := p.Finalize(nil)
	var b bytes.Buffer
	names := make([]string, 0, len(s.Vertices))
	for n := range s.Vertices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := s.Vertices[n]
		win, err := v.WaitWindow.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v.WaitWindow = nil
		fmt.Fprintf(&b, "%s %+v window=%x\n", n, v, win)
	}
	keys := make([]model.EdgeKey, 0, len(s.Edges))
	for k := range s.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %+v\n", k, s.Edges[k])
	}
	return b.String()
}

// TestHandleAndByNameReportsAgree drives two managers through one
// generated schedule — reporters appearing, going quiet long enough to age
// out, reporting again after eviction, being forgotten and coming back —
// one through handles, one through ReportTask/ReportChannel by id. Every
// partial summary, the eviction counters and the tracked counts must be
// identical: the by-id entries are the handle path plus a lookup.
func TestHandleAndByNameReportsAgree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := ManagerConfig{HistoryLength: 1 + rng.Intn(4), EvictAfter: 1 + rng.Intn(3)}
		byHandle, byName := NewManager(cfg), NewManager(cfg)

		type taskRep struct {
			id     model.TaskID
			rep    *TaskReporter // per manager: a report's sketch goes to one
			twin   *TaskReporter
			handle TaskHandle
			// quietUntil: the reporter records nothing before this interval.
			quietUntil int
		}
		type chanRep struct {
			id         model.ChannelID
			rep        *ChannelReporter
			handle     ChannelHandle
			quietUntil int
		}
		var tasks []*taskRep
		var chans []*chanRep
		vertices := []string{"a", "b", "work"}
		for interval := 0; interval < 60; interval++ {
			if len(tasks) < 12 && rng.Intn(3) == 0 {
				id := model.TaskID{Vertex: vertices[rng.Intn(3)], Index: rng.Intn(40)}
				fresh := true
				for _, x := range tasks {
					fresh = fresh && x.id != id
				}
				if fresh {
					tr := &taskRep{id: id, rep: NewTaskReporter(id), twin: NewTaskReporter(id), handle: byHandle.RegisterTask()}
					if id.Vertex == "work" {
						tr.rep.TrackQueueWait()
						tr.twin.TrackQueueWait()
					}
					tasks = append(tasks, tr)
				}
			}
			if len(chans) < 12 && rng.Intn(3) == 0 {
				id := model.ChannelID{Edge: model.EdgeKey{Source: vertices[rng.Intn(2)], Target: "work"}, Producer: rng.Intn(12), Consumer: rng.Intn(12)}
				fresh := true
				for _, x := range chans {
					fresh = fresh && x.id != id
				}
				if fresh {
					chans = append(chans, &chanRep{id: id, rep: NewChannelReporter(id), handle: byHandle.RegisterChannel()})
				}
			}
			for _, tr := range tasks {
				switch rng.Intn(12) {
				case 0: // long enough to age out, whatever EvictAfter
					tr.quietUntil = interval + 3*(2+rng.Intn(4))
				case 1:
					tr.handle.Forget()
					byName.Forget(tr.id)
				}
				if interval >= tr.quietUntil {
					for k := rng.Intn(4); k > 0; k-- {
						now, d := float64(interval)+rng.Float64(), rng.ExpFloat64()*1e-3
						for _, r := range []*TaskReporter{tr.rep, tr.twin} {
							r.RecordArrival(now)
							r.RecordService(d)
							r.RecordTaskLatency(2 * d)
							r.RecordQueueWaitN(3*d, 1)
						}
					}
				}
				rep := tr.rep.Flush()
				tr.handle.Report(&rep)
				byName.ReportTask(tr.twin.Flush())
			}
			for _, cr := range chans {
				switch rng.Intn(12) {
				case 0:
					cr.quietUntil = interval + 3*(2+rng.Intn(4))
				case 1:
					cr.handle.Forget()
					byName.ForgetChannel(cr.id)
				}
				if interval >= cr.quietUntil {
					for k := rng.Intn(3); k > 0; k-- {
						cr.rep.RecordTransfer(rng.ExpFloat64()*1e-2, rng.ExpFloat64()*1e-3)
					}
				}
				rep := cr.rep.Flush()
				byName.ReportChannel(rep)
				cr.handle.Report(&rep)
			}
			if interval%3 == 2 { // an adjustment interval
				got, want := renderPartial(t, byHandle.PartialSummary()), renderPartial(t, byName.PartialSummary())
				if got != want {
					t.Fatalf("seed %d interval %d: summaries differ\nby handle:\n%s\nby name:\n%s", seed, interval, got, want)
				}
				ht, hc := byHandle.tasks.agedOut, byHandle.channels.agedOut
				nt, nc := byName.tasks.agedOut, byName.channels.agedOut
				if ht != nt || hc != nc || len(byHandle.tasks.list) != len(byName.tasks.list) || len(byHandle.channels.list) != len(byName.channels.list) {
					t.Fatalf("seed %d interval %d: aged out %d/%d tracked %d/%d by handle, %d/%d and %d/%d by name", seed, interval,
						ht, hc, len(byHandle.tasks.list), len(byHandle.channels.list), nt, nc, len(byName.tasks.list), len(byName.channels.list))
				}
			}
		}
		if ht, hc := byHandle.tasks.agedOut, byHandle.channels.agedOut; ht == 0 || hc == 0 {
			t.Errorf("seed %d: the schedule evicted %d tasks and %d channels; it must exercise both", seed, ht, hc)
		}
	}
}

// TestManagerListsInSummationOrder: registration and report order do not
// matter, eviction and Forget leave the rest in place — the lists are
// always in the order PartialSummary has always summed in.
func TestManagerListsInSummationOrder(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryLength: 2, EvictAfter: 1})
	rng := rand.New(rand.NewSource(3))
	type reporter struct {
		id model.TaskID
		TaskHandle
	}
	var tasks []*reporter
	for _, i := range rng.Perm(30) {
		tasks = append(tasks, &reporter{model.TaskID{Vertex: []string{"b", "a", "c"}[i%3], Index: i}, m.RegisterTask()})
	}
	check := func() {
		t.Helper()
		if list := m.tasks.list; !sort.SliceIsSorted(list, func(i, j int) bool { return compareTasks(list[i], list[j]) < 0 }) {
			t.Fatal("task list out of (vertex, index) order")
		}
		if len(m.tasks.list) != len(m.tasks.byID) {
			t.Fatalf("%d listed tasks, %d indexed", len(m.tasks.list), len(m.tasks.byID))
		}
		for _, h := range m.tasks.list {
			if m.tasks.byID[h.id] != h || !h.listed || len(h.reports) == 0 {
				t.Fatalf("listed task %v: indexed %v, listed %v, %d reports", h.id, m.tasks.byID[h.id] == h, h.listed, len(h.reports))
			}
		}
	}
	for round := 0; round < 20; round++ {
		for _, h := range tasks {
			switch rng.Intn(4) {
			case 0:
				h.Report(&TaskReport{Task: h.id, ServiceCount: 1, ServiceMean: 1})
			case 1:
				h.Forget()
			}
			check()
		}
		m.PartialSummary()
		check()
	}
	for _, r := range tasks {
		if h := r.h; h != nil && !h.listed && (len(h.reports) != 0 || h.idle != 0) {
			t.Errorf("unlisted %v keeps %d reports, idle %d", h.id, len(h.reports), h.idle)
		}
	}
}

// TestWaitSketchesCycleAcrossGoroutines is the engine's arrangement: task
// goroutines record queue waits and flush, the reports travel over a
// channel to the one manager goroutine, which merges each sketch into the
// vertex window and returns it to the free list the reporters' next Flush
// draws from. Run with -race; every wait must be in exactly one window.
func TestWaitSketchesCycleAcrossGoroutines(t *testing.T) {
	const reporters, intervals, perInterval = 8, 200, 25
	// Buffered like the engine's report queue, so reporters run ahead of
	// the manager and recycled sketches are really re-drawn concurrently.
	reports := make(chan TaskReport, reporters)
	var wg sync.WaitGroup
	for i := 0; i < reporters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewTaskReporter(model.TaskID{Vertex: "work", Index: i})
			r.TrackQueueWait()
			for n := 0; n < intervals; n++ {
				for k := 0; k < perInterval; k++ {
					r.RecordService(1e-3)
					r.RecordQueueWaitN(float64(1+(n+k+i)%50)*1e-4, 1)
				}
				reports <- r.Flush()
			}
		}(i)
	}
	go func() { wg.Wait(); close(reports) }()

	m := NewManager(DefaultManagerConfig())
	var total uint64
	n := 0
	for rep := range reports {
		m.ReportTask(rep)
		if n++; n%reporters == 0 {
			total += m.PartialSummary().Finalize(nil).Vertices["work"].WaitWindow.Count()
		}
	}
	total += m.PartialSummary().Finalize(nil).Vertices["work"].WaitWindow.Count()
	if want := uint64(reporters * intervals * perInterval); total != want {
		t.Errorf("windows hold %d waits, %d were recorded", total, want)
	}
}

// TestReadReadyReportsServiceAsTaskLatency: a read-ready reporter's task
// latency is its service time, bit for bit what recording both gives.
func TestReadReadyReportsServiceAsTaskLatency(t *testing.T) {
	both, derived := NewTaskReporter(taskID("v", 0)), NewTaskReporter(taskID("v", 0))
	derived.ReadReady()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		d := rng.ExpFloat64() * 1e-3
		both.RecordService(d)
		both.RecordTaskLatency(d)
		derived.RecordService(d)
	}
	if a, b := both.Flush(), derived.Flush(); !reflect.DeepEqual(a, b) {
		t.Errorf("recorded twice %+v\nderived        %+v", a, b)
	}
	if rep := derived.Flush(); !rep.Empty() {
		t.Errorf("second flush = %+v, want empty", rep)
	}
}
