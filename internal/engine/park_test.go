package engine

import (
	"testing"

	"nephelix/internal/model"
	"nephelix/internal/ring"
	"nephelix/internal/workload"
)

// parkModel is one owner of a parker and two wakers, built from a real
// task by newTask. ready is the owner's own park predicate (the one its
// loop passes to park); each waker is its two atomic steps: make the work
// visible, then wake — the order ship and requestFlush use.
type parkModel struct {
	pk     *parker
	ready  func() bool
	wakers [2][2]func()
}

// workerParkModel is a worker owner: waker i pushes a batch into its own
// input ring (as ship does) or raises the lane's flush request (as the
// master's requestFlush does).
func workerParkModel(ex *execution, kinds [2]string) parkModel {
	tk := newTask(ex, model.TaskID{Vertex: "work"}, UDFFunc(func(*Context, Record) {}), nil, 1)
	e := tk.emitters[0]
	m := parkModel{pk: &tk.pk, ready: tk.inputReady}
	for i, kind := range kinds {
		switch kind {
		case "push":
			r := ring.New[batch](4)
			tk.addInRing(r)
			ref := &channelRef{to: tk, ring: r}
			m.wakers[i] = [2]func(){func() { r.Push(batch{}) }, func() { ref.to.pk.wake() }}
		case "flush":
			m.wakers[i] = [2]func(){func() { e.flushReq.Store(true) }, e.pk.wake}
		}
	}
	return m
}

// sourceParkModel is a source-lane owner: waker i raises the lane's flush
// request (the master's requestFlush) or a barrier request (the master's
// startCheckpoint).
func sourceParkModel(ex *execution, kinds [2]string) parkModel {
	src := &SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}
	e := newTask(ex, model.TaskID{Vertex: "src"}, nil, src, 1).emitters[0]
	m := parkModel{pk: e.pk, ready: e.requested}
	for i, kind := range kinds {
		switch kind {
		case "flush":
			m.wakers[i] = [2]func(){func() { e.flushReq.Store(true) }, e.pk.wake}
		case "barrier":
			m.wakers[i] = [2]func(){func() { e.barrierReq.Store(1) }, e.pk.wake}
		}
	}
	return m
}

// interleavings returns every order of c owner steps ('C') and a, b steps
// of the two wakers ('A', 'B'), each party's steps in program order.
func interleavings(c, a, b int) []string {
	if c+a+b == 0 {
		return []string{""}
	}
	var out []string
	for _, p := range []struct {
		step    byte
		c, a, b int
	}{{'C', c - 1, a, b}, {'A', c, a - 1, b}, {'B', c, a, b - 1}} {
		if p.c < 0 || p.a < 0 || p.b < 0 {
			continue
		}
		for _, rest := range interleavings(p.c, p.a, p.b) {
			out = append(out, string(p.step)+rest)
		}
	}
	return out
}

// runInterleaving drives one schedule on one goroutine. The owner's two
// steps are parker.prepare's publish of parked and its call of the
// owner's predicate; waker steps scheduled between them run inside that
// call, before the real predicate (after publish) or after it (before
// prepare returns). It returns whether the owner blocked.
func runInterleaving(m parkModel, sched string) (blocked bool) {
	i, next := 0, [2]int{}
	// wakers runs scheduled waker steps up to the next owner step (or to
	// the end with all set).
	wakers := func(all bool) {
		for ; i < len(sched) && (all || sched[i] != 'C'); i++ {
			if sched[i] != 'C' {
				w := sched[i] - 'A'
				m.wakers[w][next[w]]()
				next[w]++
			}
		}
	}
	wakers(false)
	blocked = m.pk.prepare(func() bool {
		i++ // parked is published
		wakers(false)
		i++ // the re-check
		ready := m.ready()
		wakers(false)
		return ready
	})
	wakers(true) // steps an owner that never re-checked did not reach
	return blocked
}

// TestParkWakeInterleavings checks the park/wake protocol under every
// interleaving of one owner and two wakers, with no park timeout, no
// goroutine and no sleep: owners are a worker (wakers push into its rings
// or raise its flush request) and a source lane (flush and barrier
// requests), each parking through parker.prepare with its own predicate.
// No run may end with the owner blocked, work ready, and no wake token
// pending — the lost wakeup, which with the timeout disabled would sleep
// forever. A wake token pending must have been counted.
func TestParkWakeInterleavings(t *testing.T) {
	ex := &execution{
		cfg:   Config{SourceShards: 1}.withDefaults(),
		spec:  NewJobSpec(buildChain(t, 1, 1, model.PatternRoundRobin)),
		modes: map[string]model.LatencyMode{},
	}
	owners := []struct {
		name  string
		build func(*execution, [2]string) parkModel
		kinds [2][]string // waker 0's and waker 1's possible kinds
	}{
		{"worker", workerParkModel, [2][]string{{"push", "flush"}, {"push", "flush"}}},
		{"source", sourceParkModel, [2][]string{{"flush", "barrier"}, {"flush", "barrier"}}},
	}
	scheds := interleavings(2, 2, 2)
	if len(scheds) != 90 { // 6! / (2! 2! 2!)
		t.Fatalf("%d interleavings of 2+2+2 steps, want 90", len(scheds))
	}
	runs := 0
	for _, o := range owners {
		for _, k0 := range o.kinds[0] {
			for _, k1 := range o.kinds[1] {
				for _, sched := range scheds {
					m := o.build(ex, [2]string{k0, k1})
					blocked := runInterleaving(m, sched)
					runs++
					ready, token := m.ready(), len(m.pk.ch) > 0
					where := o.name + " " + k0 + "/" + k1 + " " + sched
					switch {
					case blocked && ready && !token:
						t.Errorf("%s: lost wakeup — owner blocked with work ready and no wake pending", where)
					case blocked != m.pk.parked.Load():
						t.Errorf("%s: prepare returned %v with parked = %v", where, blocked, m.pk.parked.Load())
					case token && m.pk.wakes.Load() == 0:
						t.Errorf("%s: a wake token is pending but no wake was counted", where)
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d interleavings each of %d owner × waker-kind models", runs, len(scheds), runs/len(scheds))
}
