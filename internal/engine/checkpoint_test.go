package engine

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/model"
	"nephelix/internal/obs"
	"nephelix/internal/ring"
	"nephelix/internal/workload"
)

// guaranteeConfig is the shared fast-cadence configuration for the
// processing-guarantee integration tests: checkpoints every 20 ms,
// quick supervised restarts, generous restart budget.
func guaranteeConfig(seed int64, g ckpt.Guarantee, rec *obs.Recorder) Config {
	return Config{
		Seed:               seed,
		Guarantee:          g,
		CheckpointInterval: 20 * time.Millisecond,
		restart:            restartPolicy{maxRestarts: 50, backoff: 2 * time.Millisecond, backoffCap: 10 * time.Millisecond},
		Recorder:           rec,
	}
}

// TestEngineAtLeastOnceZeroLoss is the tentpole robustness check: with
// at-least-once guarantees, a pipeline whose workers panic repeatedly
// must deliver every source record to the sink at least once — replay
// from the source logs covers everything a crash destroyed. Loss is
// measured two ways: committed-but-undelivered offsets (holes in the
// sink dedup windows) and distinct sink deliveries vs distinct source
// offsets.
func TestEngineAtLeastOnceZeroLoss(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received, seen atomic.Int64

	store, err := ckpt.OpenFileStore(filepath.Join(t.TempDir(), "ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 1.5},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return &panicky{n: &seen, every: 100} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	rec := obs.NewRecorder(0)
	cfg := guaranteeConfig(21, ckpt.AtLeastOnce, rec)
	cfg.CheckpointStore = store
	exec, err := New(cfg).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("job should survive UDF panics, got: %v", err)
	}

	if exec.TaskFailures() == 0 {
		t.Fatal("test needs at least one supervised failure to exercise replay")
	}
	if exec.LingerTimeouts() != 0 {
		t.Errorf("LingerTimeouts = %d, want 0 (tail never checkpointed)", exec.LingerTimeouts())
	}

	// Zero loss, stated exactly: every distinct source offset reached the
	// sink, and no committed offset is missing from the dedup windows.
	distinct, dups, holes := exec.SinkDeliveries()
	if holes != 0 {
		t.Errorf("holes = %d, want 0 (committed offsets never delivered)", holes)
	}
	if src := exec.SourceRecords(); distinct != src {
		t.Errorf("distinct sink deliveries = %d, want %d (distinct source offsets)", distinct, src)
	}
	if emitted.Load() != exec.SourceRecords() {
		t.Errorf("emitted %d but SourceRecords %d (replays must not re-stamp)", emitted.Load(), exec.SourceRecords())
	}
	// At-least-once delivers duplicates instead of suppressing them.
	if received.Load() != distinct+dups {
		t.Errorf("sink saw %d records, want distinct+dups = %d", received.Load(), distinct+dups)
	}
	if received.Load() < emitted.Load() {
		t.Errorf("received %d < emitted %d: records lost under at-least-once", received.Load(), emitted.Load())
	}
	if exec.ReplayedRecords() == 0 {
		t.Error("failures happened but no records were replayed")
	}

	committed, _ := exec.Checkpoints()
	if committed == 0 {
		t.Fatal("no checkpoint committed")
	}
	// The final committed checkpoint must cover the whole stream (sources
	// linger until their log is committed).
	ck, ok := exec.LastCheckpoint()
	if !ok {
		t.Fatal("LastCheckpoint: none after committed > 0")
	}
	if got := ck.TotalOffsets(); got != uint64(emitted.Load()) {
		t.Errorf("final checkpoint covers %d offsets, want %d", got, emitted.Load())
	}
	// And it survived the trip through the file store.
	stored, ok, err := store.Latest()
	if err != nil || !ok || stored.ID != ck.ID {
		t.Errorf("file store Latest = (%+v, %v, %v), want checkpoint %d", stored, ok, err, ck.ID)
	}

	// Lifecycle audit trail: starts for every checkpoint, commits carry
	// id and duration, at least one replay event.
	byKind := eventsByKind(rec)
	if starts, commits := len(byKind[obs.KindCheckpointStart]), len(byKind[obs.KindCheckpointCommit]); starts < commits || commits != int(committed) {
		t.Errorf("checkpoint events: %d starts / %d commits, execution committed %d", starts, commits, committed)
	}
	for _, ev := range byKind[obs.KindCheckpointCommit] {
		if ev.Lifecycle.CheckpointID <= 0 {
			t.Errorf("commit event without checkpoint id: %+v", ev.Lifecycle)
		}
	}
	if len(byKind[obs.KindReplay]) == 0 {
		t.Error("no replay lifecycle event recorded")
	}
}

// dedupSink counts deliveries and flags any record seen twice — under
// exactly-once the engine must suppress replay duplicates before the
// UDF runs.
type dedupSink struct {
	count   *atomic.Int64
	seen    *sync.Map // key -> struct{}
	doubled *atomic.Int64
}

func (s *dedupSink) Process(_ *Context, rec Record) {
	s.count.Add(1)
	if _, loaded := s.seen.LoadOrStore(rec.Key, struct{}{}); loaded {
		s.doubled.Add(1)
	}
}

// TestEngineExactlyOnceNoDuplicates: with exactly-once guarantees the
// sink UDF observes every source record exactly once — replay covers
// crashes (zero loss) and the dedup wrapper suppresses the duplicates
// replay necessarily creates.
func TestEngineExactlyOnceNoDuplicates(t *testing.T) {
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received, seen, doubled atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 1.5},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return &panicky{n: &seen, every: 100} }).
		SetUDF("sink", func(int) UDF { return &dedupSink{count: &received, seen: &sync.Map{}, doubled: &doubled} })

	exec, err := New(guaranteeConfig(22, ckpt.ExactlyOnce, nil)).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("job should survive UDF panics, got: %v", err)
	}

	if exec.TaskFailures() == 0 {
		t.Fatal("test needs at least one supervised failure to exercise dedup")
	}
	if doubled.Load() != 0 {
		t.Errorf("sink saw %d records more than once under exactly-once", doubled.Load())
	}
	if received.Load() != emitted.Load() {
		t.Errorf("sink deliveries = %d, want exactly %d (emitted)", received.Load(), emitted.Load())
	}
	distinct, _, holes := exec.SinkDeliveries()
	if holes != 0 {
		t.Errorf("holes = %d, want 0", holes)
	}
	if distinct != emitted.Load() {
		t.Errorf("distinct = %d, want %d", distinct, emitted.Load())
	}
}

// holdingForwarder forwards records, but while hold is set it blocks
// inside Process (reporting via blocked) — pinning any barrier behind
// the record being processed so an in-flight checkpoint provably
// cannot complete until released.
type holdingForwarder struct {
	hold    *atomic.Bool
	blocked *atomic.Int64
}

func (h *holdingForwarder) Process(ctx *Context, rec Record) {
	if h.hold.Load() {
		h.blocked.Add(1)
		for h.hold.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	ctx.Emit(0, rec)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineGuaranteeChurnAlignment (satellite): barrier checkpoints
// racing scale-up/scale-down churn must neither deadlock a task on a
// stale alignment count nor commit an inconsistent cut. The test makes
// the race deterministic: workers are blocked mid-record so the next
// checkpoint is provably stuck in alignment, then the worker vertex is
// churned — the stuck checkpoint must abort, the job must still finish,
// and the zero-loss/zero-dup invariants must still hold.
func TestEngineGuaranteeChurnAlignment(t *testing.T) {
	g := buildChain(t, 2, 4, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	var hold atomic.Bool
	var blocked atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 400, Length: 1.2},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return &holdingForwarder{hold: &hold, blocked: &blocked} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	cfg := guaranteeConfig(23, ckpt.ExactlyOnce, nil)
	cfg.CheckpointInterval = 10 * time.Millisecond
	exec, err := New(cfg).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Two churn rounds, each against a checkpoint pinned in alignment:
	// once adding a consumer, once removing one.
	for round, churn := range []func(){
		func() { exec.ex.scaleUp("work", 1) },
		func() { exec.ex.scaleDown("work", 1) },
	} {
		base := blocked.Load()
		workers := int64(exec.Parallelism("work"))
		hold.Store(true)
		waitUntil(t, "all workers to block mid-record", 5*time.Second, func() bool {
			return blocked.Load() >= base+workers
		})
		// With every worker stuck inside Process, no worker can ack, so an
		// in-flight checkpoint cannot fully commit before the churn below
		// lands: either the abort-in-flight path or the commit-time
		// generation check must discard it.
		waitUntil(t, "a checkpoint in flight", 5*time.Second, func() bool {
			return exec.ex.coord.InFlight() != 0
		})
		churn()
		hold.Store(false)
		_ = round
		// Let drains settle before the next round.
		time.Sleep(100 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("churned job did not finish: %v", err)
	}

	committed, aborted := exec.Checkpoints()
	if committed == 0 {
		t.Error("no checkpoint committed after churn settled")
	}
	if aborted == 0 {
		t.Error("churn racing checkpoints should abort at least one (else the race never happened)")
	}
	if received.Load() != emitted.Load() {
		t.Errorf("sink deliveries = %d, want %d", received.Load(), emitted.Load())
	}
	if _, _, holes := exec.SinkDeliveries(); holes != 0 {
		t.Errorf("holes = %d, want 0", holes)
	}
	if exec.LingerTimeouts() != 0 {
		t.Errorf("LingerTimeouts = %d, want 0", exec.LingerTimeouts())
	}
}

// TestEngineMultiSourceChurnAlignment: the counting-alignment invariants
// must survive a source vertex of three tasks. Each source task owns a
// disjoint offset range through its own log and its own outbound rings,
// so a barrier id is injected once per source task and a consumer's
// alignment count is its number of live producer tasks. Churn races
// checkpoints exactly as in the one-source test; the cut must stay
// consistent: no deadlock on a stale count, no holes, no lost or
// duplicated offsets across the three logs.
func TestEngineMultiSourceChurnAlignment(t *testing.T) {
	g := buildChain(t, 2, 4, model.PatternRoundRobin)
	src := g.Vertex("src")
	src.Parallelism, src.MinParallelism, src.MaxParallelism = 3, 3, 3
	var emitted, received atomic.Int64
	var hold atomic.Bool
	var blocked atomic.Int64

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 400, Length: 1.2},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return &holdingForwarder{hold: &hold, blocked: &blocked} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	cfg := guaranteeConfig(29, ckpt.ExactlyOnce, nil)
	cfg.CheckpointInterval = 10 * time.Millisecond
	exec, err := New(cfg).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Three source tasks, three distinct source logs (distinct srcIDs =
	// disjoint offsets).
	exec.ex.mu.Lock()
	logIDs := map[int32]bool{}
	for _, st := range exec.ex.vertices["src"].tasks {
		if st.lane.srcLog == nil {
			t.Error("source task has no source log")
			continue
		}
		logIDs[st.lane.srcLog.ID()] = true
	}
	exec.ex.mu.Unlock()
	if len(logIDs) != 3 {
		t.Fatalf("source vertex runs %d distinct offset logs, want 3", len(logIDs))
	}

	for _, churn := range []func(){
		func() { exec.ex.scaleUp("work", 1) },
		func() { exec.ex.scaleDown("work", 1) },
	} {
		base := blocked.Load()
		workers := int64(exec.Parallelism("work"))
		hold.Store(true)
		waitUntil(t, "all workers to block mid-record", 5*time.Second, func() bool {
			return blocked.Load() >= base+workers
		})
		// A round armed while every worker is blocked: each worker must
		// align one barrier per source task, the sink one per worker.
		waitUntil(t, "a checkpoint in flight that no consumer acknowledged", 5*time.Second, func() bool {
			exec.ex.mu.Lock()
			defer exec.ex.mu.Unlock()
			id := exec.ex.coord.InFlight()
			want := map[string]int{"work": 3, "sink": len(exec.ex.vertices["work"].tasks)}
			got := map[*task]int{}
			for vertex := range want {
				for _, tk := range exec.ex.vertices[vertex].tasks {
					if got[tk] = exec.ex.coord.Expected(id, tk); got[tk] == -1 {
						return false // not armed for tk, acknowledged, or superseded
					}
				}
			}
			for tk, n := range got {
				if n != want[tk.id.Vertex] {
					t.Errorf("%s aligns %d barriers, want %d (one per live producer task)", tk.id, n, want[tk.id.Vertex])
				}
			}
			return true
		})
		churn()
		hold.Store(false)
		time.Sleep(100 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("churned three-source job did not finish: %v", err)
	}

	committed, aborted := exec.Checkpoints()
	if committed == 0 {
		t.Error("no checkpoint committed after churn settled")
	}
	if aborted == 0 {
		t.Error("churn racing checkpoints should abort at least one (else the race never happened)")
	}
	if received.Load() != emitted.Load() {
		t.Errorf("sink deliveries = %d, want %d", received.Load(), emitted.Load())
	}
	// Offsets are stamped once across the source tasks: disjoint ranges
	// mean SourceRecords (the union of the three logs) equals the emit
	// count.
	if exec.SourceRecords() != emitted.Load() {
		t.Errorf("SourceRecords = %d, want %d (source tasks must own disjoint offsets)", exec.SourceRecords(), emitted.Load())
	}
	distinct, _, holes := exec.SinkDeliveries()
	if holes != 0 {
		t.Errorf("holes = %d, want 0", holes)
	}
	if distinct != emitted.Load() {
		t.Errorf("distinct sink deliveries = %d, want %d", distinct, emitted.Load())
	}
	if exec.LingerTimeouts() != 0 {
		t.Errorf("LingerTimeouts = %d, want 0", exec.LingerTimeouts())
	}
}

// TestLostRecordsMidBatchPanic (satellite) pins the panic accounting
// semantics in handleBatch: the record being processed when the UDF
// panics and the unprocessed remainder of its batch are lost; already-
// completed records are not.
func TestLostRecordsMidBatchPanic(t *testing.T) {
	var calls, processed int
	tk, ex := newBareTask(UDFFunc(func(*Context, Record) {
		calls++
		if calls == 3 {
			panic("mid-batch")
		}
		processed++
	}))
	b := batch{items: make([]Record, 5), oldestBuf: time.Now(), shipped: time.Now()}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("UDF panic must propagate to the supervisor defer")
			}
		}()
		tk.handleBatch(b)
	}()

	// Records 1 and 2 completed; record 3 died mid-Process; 4 and 5 never
	// ran: exactly 3 lost.
	if got := ex.lostRecords.Load(); got != 3 {
		t.Errorf("lostRecords = %d, want 3 (panicking record + remainder)", got)
	}
	if got := processed; got != 2 {
		t.Errorf("processed = %d, want 2 (completed records only)", got)
	}
}

// TestLostRecordsDeadConsumerShip (satellite) pins the other loss path:
// a shipment into a dead consumer's ring (closed by its exit hook or by
// the master after the crash) counts every record in the batch as lost,
// exactly once, and recycles the slice.
func TestLostRecordsDeadConsumerShip(t *testing.T) {
	ex := &execution{cfg: Config{}.withDefaults()}
	producer := &task{ex: ex}
	pe := &emitter{t: producer}
	producer.lane = pe
	consumer := &task{}
	deadRing := ring.New[batch](4)
	deadRing.Close()

	pe.ship([]shipment{
		{ref: &channelRef{to: consumer, ring: deadRing}, b: batch{items: make([]Record, 7)}},
		{ref: &channelRef{to: consumer, ring: deadRing}, b: batch{items: make([]Record, 2)}},
	})
	if got := ex.lostRecords.Load(); got != 9 {
		t.Errorf("lostRecords = %d, want 9 (both dead-consumer batches)", got)
	}

	// A live consumer with ring room loses nothing.
	live := &task{pk: parker{ch: make(chan struct{}, 1)}}
	liveRing := ring.New[batch](4)
	pe.ship([]shipment{{ref: &channelRef{to: live, ring: liveRing}, b: batch{items: make([]Record, 4)}}})
	if got := ex.lostRecords.Load(); got != 9 {
		t.Errorf("lostRecords = %d after live ship, want still 9", got)
	}
	b, ok := liveRing.Pop()
	if !ok || len(b.items) != 4 {
		t.Errorf("live consumer ring got ok=%v len=%d, want a 4-record batch", ok, len(b.items))
	}
}

// restartProbe panics once per configured epoch (spaced beyond the
// backoff-reset window) so every supervised restart should start from a
// fresh backoff.
type restartProbe struct {
	mu        sync.Mutex
	lastPanic time.Time
	panics    int
	maxPanics int
	gap       time.Duration
}

func (p *restartProbe) Process(ctx *Context, rec Record) {
	p.mu.Lock()
	due := p.panics < p.maxPanics && (p.lastPanic.IsZero() || time.Since(p.lastPanic) > p.gap)
	if due {
		p.panics++
		p.lastPanic = time.Now()
	}
	p.mu.Unlock()
	if due {
		panic("spaced failure")
	}
	ctx.Emit(0, rec)
}

// TestBackoffResetAfterStableRun (satellite): failures spaced further
// apart than restart.resetAfter must each restart at attempt 1 — the
// stable run in between earns the base backoff back. Without the reset
// the recorded attempts would climb 1, 2, 3.
func TestBackoffResetAfterStableRun(t *testing.T) {
	g := buildChain(t, 1, 1, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	probe := &restartProbe{maxPanics: 3, gap: 200 * time.Millisecond}

	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 300, Length: 1.2},
			Emit: func(ctx *Context) {
				n := emitted.Add(1)
				ctx.Emit(0, Record{Key: uint64(n)})
			},
		}).
		SetUDF("work", func(int) UDF { return probe }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} })

	rec := obs.NewRecorder(0)
	exec, err := New(Config{
		Seed:               31,
		AdjustmentInterval: 25 * time.Millisecond,
		restart:            restartPolicy{maxRestarts: 3, backoff: 2 * time.Millisecond, backoffCap: 10 * time.Millisecond, resetAfter: 100 * time.Millisecond},
		Recorder:           rec,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("spaced failures must never degrade the vertex: %v", err)
	}
	if got := exec.TaskFailures(); got != 3 {
		t.Fatalf("TaskFailures = %d, want 3", got)
	}
	restarts := eventsByKind(rec)[obs.KindTaskRestart]
	if len(restarts) != 3 {
		t.Fatalf("task_restart events: got %d, want 3", len(restarts))
	}
	for i, ev := range restarts {
		if ev.Lifecycle.Attempts != 1 {
			t.Errorf("restart %d recorded attempt %d, want 1 (backoff reset between spaced failures)",
				i, ev.Lifecycle.Attempts)
		}
	}
}

// TestEngineSteadyStateAllocsWithGuarantees (satellite) extends the
// alloc guard to the guarantee-enabled data plane: offset stamping, the
// replay log, barrier traffic and sink dedup together must keep the
// steady state at or under the same 0.5 allocs/record budget as the
// plain plane.
func TestEngineSteadyStateAllocsWithGuarantees(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock engine runs")
	}
	var records float64
	allocs := testing.AllocsPerRun(3, func() {
		records = allocGuaranteeRun(t)
	})
	if perRecord := allocs / records; perRecord > 0.5 {
		t.Errorf("guarantee-enabled allocations: %.3f allocs/record (%.0f allocs / %.0f records), want ≤ 0.5",
			perRecord, allocs, records)
	}
}

// allocGuaranteeRun mirrors allocEngineRun with exactly-once guarantees
// and a fast checkpoint cadence.
func allocGuaranteeRun(t *testing.T) float64 {
	t.Helper()
	g := buildChain(t, 2, 2, model.PatternRoundRobin)
	var emitted, received atomic.Int64
	spec := NewJobSpec(g).
		SetSource("src", SourceSpec{
			Schedule: &workload.ConstantSchedule{RatePerSecond: 1000, Length: 0.5},
			Emit: func(ctx *Context) {
				n := emitted.Add(64)
				for i := 0; i < 64; i++ {
					ctx.Emit(0, Record{Key: uint64(n) + uint64(i)})
				}
			},
		}).
		SetUDF("work", func(int) UDF { return &forwarder{} }).
		SetUDF("sink", func(int) UDF { return &countingSink{count: &received} }).
		SetEdgeBatching("src", "work", BatchingAdaptive).
		SetEdgeBatching("work", "sink", BatchingAdaptive)
	seq, err := model.ParseSequence(g, "src->work", "work", "work->sink")
	if err != nil {
		t.Fatal(err)
	}
	spec.AddConstraint(&model.Constraint{
		Name: "alloc", Sequence: seq,
		Bound: 20 * time.Millisecond, Window: 10 * time.Second,
	})
	exec, err := New(Config{
		Seed:                1,
		MeasurementInterval: 100 * time.Millisecond,
		AdjustmentInterval:  250 * time.Millisecond,
		Guarantee:           ckpt.ExactlyOnce,
		CheckpointInterval:  50 * time.Millisecond,
	}).Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := exec.Wait(ctx); err != nil {
		t.Fatalf("alloc run did not finish: %v", err)
	}
	if received.Load() == 0 {
		t.Fatal("no records delivered")
	}
	if _, _, holes := exec.SinkDeliveries(); holes != 0 {
		t.Fatalf("holes = %d in a failure-free run", holes)
	}
	return float64(received.Load())
}
