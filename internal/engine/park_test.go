package engine

import (
	"testing"

	"nephelix/internal/model"
	"nephelix/internal/ring"
	"nephelix/internal/workload"
)

// parkModel is one owner of a parker and two wakers, built from a real
// task by newTask. ready is the owner's own park predicate (the one its
// loop passes to park); announce, when set, is an owner step before it
// publishes parked (a blocked producer's ring.Block). Each waker is its
// two atomic steps: make the work visible, then wake — the order ship,
// requestFlush and a consumer's pop use.
type parkModel struct {
	owner    *task
	pk       *parker
	ready    func() bool
	announce func()
	wakers   [2][2]func()
}

// workerParkModel is a worker owner: waker i pushes a batch into its own
// input ring (as ship does), raises the lane's flush request (as the
// master's requestFlush does), raises the final flag (as the master's
// endInputs does) or closes its own input ring (as a producer's
// channelRef.end does: close, then the real end, whose close is
// idempotent and whose wake is the waker's second step).
func workerParkModel(ex *execution, kinds [2]string) parkModel {
	tk := newTask(ex, model.TaskID{Vertex: "work"}, UDFFunc(func(*Context, Record) {}), nil, 1)
	e := tk.lane
	m := parkModel{owner: tk, pk: &tk.pk, ready: tk.inputReady}
	for i, kind := range kinds {
		switch kind {
		case "push":
			ref := &channelRef{to: tk, ring: ring.New[batch](4)}
			tk.addInput(ref)
			r := ref.ring
			m.wakers[i] = [2]func(){func() { r.Push(batch{}) }, func() { ref.to.pk.wake() }}
		case "flush":
			m.wakers[i] = [2]func(){func() { e.flushReq.Store(true) }, tk.pk.wake}
		case "final":
			m.wakers[i] = [2]func(){func() { tk.final.Store(true) }, tk.pk.wake}
		case "close":
			ref := &channelRef{to: tk, ring: ring.New[batch](4)}
			tk.addInput(ref)
			m.wakers[i] = [2]func(){ref.ring.Close, ref.end}
		}
	}
	return m
}

// drainingParkModel is a worker owner the master has scaled down, and
// finalParkModel one whose job is ending: no producer will be wired to
// either again, so its input ends once both wakers' rings are closed and
// drained.
func drainingParkModel(ex *execution, kinds [2]string) parkModel {
	m := workerParkModel(ex, kinds)
	m.owner.draining.Store(true)
	return m
}

func finalParkModel(ex *execution, kinds [2]string) parkModel {
	m := workerParkModel(ex, kinds)
	m.owner.final.Store(true)
	return m
}

// sourceParkModel is a source owner: waker i raises the lane's flush
// request (the master's requestFlush) or a barrier request (the master's
// startCheckpoint).
func sourceParkModel(ex *execution, kinds [2]string) parkModel {
	src := &SourceSpec{Schedule: &workload.ConstantSchedule{RatePerSecond: 1, Length: 1}, Emit: func(*Context) {}}
	tk := newTask(ex, model.TaskID{Vertex: "src"}, nil, src, 1)
	e := tk.lane
	m := parkModel{owner: tk, pk: &tk.pk, ready: e.requested}
	for i, kind := range kinds {
		switch kind {
		case "flush":
			m.wakers[i] = [2]func(){func() { e.flushReq.Store(true) }, tk.pk.wake}
		case "barrier":
			m.wakers[i] = [2]func(){func() { e.barrierReq.Store(1) }, tk.pk.wake}
		}
	}
	return m
}

// producerParkModel is a producer owner blocked on a full ring into a
// consumer, as emitter.await parks it: it announces the block
// (ring.Block), then parks with its predicate (unblocked). Waker i is the
// ring's consumer popping it down to half its capacity, then checking
// (channelRef.popped, after each pop in scan); the consumer dying
// (channelRef.cut: close, then wake, as taskDone and a crash's reclaim
// do); a flush request (the master's requestFlush); or a drain (the
// master's scaleDown or stopSources: draining, then wake).
func producerParkModel(ex *execution, kinds [2]string) parkModel {
	tk := newTask(ex, model.TaskID{Vertex: "work"}, UDFFunc(func(*Context, Record) {}), nil, 1)
	e := tk.lane
	ref := &channelRef{from: tk, to: &task{pk: parker{ch: make(chan struct{}, 1)}}, ring: ring.New[batch](4)}
	r := ref.ring
	for r.Push(batch{}) {
	}
	m := parkModel{owner: tk, pk: &tk.pk, ready: func() bool { return e.unblocked(r, false) }, announce: r.Block}
	for i, kind := range kinds {
		switch kind {
		case "pop":
			m.wakers[i] = [2]func(){func() {
				for r.Len() > r.Cap()/2 {
					r.Pop()
				}
			}, ref.popped}
		case "cut":
			m.wakers[i] = [2]func(){r.Close, ref.cut}
		case "flush":
			m.wakers[i] = [2]func(){func() { e.flushReq.Store(true) }, tk.pk.wake}
		case "drain":
			m.wakers[i] = [2]func(){func() { tk.draining.Store(true) }, tk.pk.wake}
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

// runInterleaving drives one schedule on one goroutine. The owner's
// steps are its announce, if any, then parker.prepare's publish of parked
// and its call of the owner's predicate; waker steps scheduled between
// the last two run inside that call, before the real predicate (after
// publish) or after it (before prepare returns). It returns whether the
// owner blocked, and whether no waker step ran before its re-check
// (idle: nothing was visible).
func runInterleaving(m parkModel, sched string) (blocked, idle bool) {
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
	if m.announce != nil {
		i++
		m.announce()
		wakers(false)
	}
	blocked = m.pk.prepare(func() bool {
		i++ // parked is published
		wakers(false)
		i++ // the re-check
		idle = next == [2]int{}
		ready := m.ready()
		wakers(false)
		return ready
	})
	wakers(true) // steps an owner that never re-checked did not reach
	return blocked, idle
}

// TestParkWakeInterleavings checks the park/wake protocol under every
// interleaving of one owner and two wakers, with no park timeout, no
// goroutine and no sleep: owners are a worker (wakers push into its
// rings, raise its flush request or its final flag), a draining and a
// final worker (wakers push into or close its rings), a source (flush
// and barrier requests) and a producer blocked on a full ring (its
// consumer pops it to half its capacity or dies, the master requests a
// flush or a drain), each parking through parker.prepare with its own
// predicate. Every waker has made its work visible by the end of a run,
// so no run may end with the owner blocked and no wake token pending —
// the lost wakeup, which with the timeout disabled would sleep forever.
// The verdict does not ask the owner's predicate, so a predicate that
// misses a kind of work fails too; and an owner that re-checks before
// any waker step must block, so a predicate that sees work where there
// is none (an input ended while a ring is open) fails as well. A wake
// token pending must have been counted.
func TestParkWakeInterleavings(t *testing.T) {
	ex := &execution{
		cfg:   Config{}.withDefaults(),
		spec:  NewJobSpec(buildChain(t, 1, 1, model.PatternRoundRobin)),
		modes: map[string]model.LatencyMode{},
	}
	owners := []struct {
		name  string
		build func(*execution, [2]string) parkModel
		kinds [2][]string // waker 0's and waker 1's possible kinds
	}{
		{"worker", workerParkModel, [2][]string{{"push", "flush", "final"}, {"push", "flush", "final"}}},
		{"draining worker", drainingParkModel, [2][]string{{"push", "close"}, {"push", "close"}}},
		{"final worker", finalParkModel, [2][]string{{"push", "close"}, {"push", "close"}}},
		{"source", sourceParkModel, [2][]string{{"flush", "barrier"}, {"flush", "barrier"}}},
		{"blocked producer", producerParkModel, [2][]string{{"pop", "cut", "flush", "drain"}, {"pop", "cut", "flush", "drain"}}},
	}
	scheds := [2][]string{interleavings(2, 2, 2), interleavings(3, 2, 2)}
	if len(scheds[0]) != 90 || len(scheds[1]) != 210 { // 6! / (2! 2! 2!), 7! / (3! 2! 2!)
		t.Fatalf("%d and %d interleavings of 2+2+2 and 3+2+2 steps, want 90 and 210", len(scheds[0]), len(scheds[1]))
	}
	runs, models := 0, 0
	for _, o := range owners {
		for _, k0 := range o.kinds[0] {
			for _, k1 := range o.kinds[1] {
				models++
				steps := scheds[0]
				if o.build(ex, [2]string{k0, k1}).announce != nil {
					steps = scheds[1]
				}
				for _, sched := range steps {
					m := o.build(ex, [2]string{k0, k1})
					blocked, idle := runInterleaving(m, sched)
					runs++
					token := len(m.pk.ch) > 0
					where := o.name + " " + k0 + "/" + k1 + " " + sched
					switch {
					case blocked && !token:
						t.Errorf("%s: lost wakeup — owner blocked with work ready and no wake pending", where)
					case idle && !blocked:
						t.Errorf("%s: owner found work before any waker made it visible", where)
					case blocked != m.pk.parked.Load():
						t.Errorf("%s: prepare returned %v with parked = %v", where, blocked, m.pk.parked.Load())
					case token && m.pk.wakes.Load() == 0:
						t.Errorf("%s: a wake token is pending but no wake was counted", where)
					}
				}
			}
		}
	}
	t.Logf("%d runs: every interleaving of %d owner × waker-kind models", runs, models)
}
