package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"nephelix/internal/ckpt"
	"nephelix/internal/probe"
	"nephelix/internal/workload"
)

// countingSink counts Process calls, so suppression under exactly-once
// is observable: suppressed duplicates are admitted to the dedup table
// but never reach the behavior.
type countingSink struct {
	count *int64
	probe *probe.Probe
}

func (b *countingSink) ServiceTime(_ *rand.Rand, _ *Item) float64 { return 1e-9 }

func (b *countingSink) Process(ctx *TaskContext, it *Item) {
	*b.count++
	if b.probe != nil && it.Sampled {
		b.probe.Record(ctx.Now() - it.EmitTime)
	}
}

// guaranteeConfig builds the standard fault pipeline under a guarantee
// level, with a counting sink.
func guaranteeConfig(t *testing.T, probes *ProbeSet, g ckpt.Guarantee, plan *FaultPlan, sinkCalls *int64) Config {
	t.Helper()
	cfg := pipelineConfig(t, probes,
		&workload.ConstantSchedule{RatePerSecond: 200, Length: 40}, false, 4,
		func(int) Behavior { return &testServer{mean: 0.012} })
	sink := probes.Probe("e2e")
	cfg.Vertices["sink"] = VertexConfig{NewBehavior: func(int) Behavior {
		return &countingSink{count: sinkCalls, probe: sink}
	}}
	cfg.Faults = plan
	cfg.Guarantee = g
	cfg.CheckpointInterval = 0.5
	return cfg
}

// killPlan is the standard recovery scenario: a source crash, a
// half-pool worker crash, then a third worker crash while the two
// survivors carry the overload (rho 1.2), so its queue holds real
// backlog that dies with it. All respawned.
func killPlan() *FaultPlan {
	return &FaultPlan{
		TaskKills: []TaskKill{
			{At: 12, Vertex: "src", Count: 1},
			{At: 20, Vertex: "server", Count: 2},
			{At: 20.6, Vertex: "server", Count: 1},
		},
		Respawn:      true,
		RestartDelay: 1,
	}
}

// TestSimGuaranteeZeroLossAtLeastOnce: across a source kill and worker
// kills with respawn, at-least-once must deliver every emitted item to
// the sink — zero holes, distinct deliveries equal to emissions — with
// the duplicates of replay detected but not suppressed.
func TestSimGuaranteeZeroLossAtLeastOnce(t *testing.T) {
	probes := probe.NewProbeSet()
	var sinkCalls int64
	cfg := guaranteeConfig(t, probes, ckpt.AtLeastOnce, killPlan(), &sinkCalls)
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledTasks != 4 || s.respawnedTasks != 4 {
		t.Fatalf("killed/respawned = %d/%d, want 4/4", res.KilledTasks, s.respawnedTasks)
	}
	if res.KilledItems == 0 {
		t.Error("the kills lost no items — the scenario exercises nothing")
	}
	if res.CheckpointsCommitted == 0 {
		t.Error("no checkpoints committed")
	}
	if res.ReplayedItems == 0 {
		t.Error("no items replayed despite respawns")
	}
	if res.SinkHoles != 0 {
		t.Errorf("SinkHoles = %d, want 0 (committed records were lost)", res.SinkHoles)
	}
	emitted := res.Emitted["src"]
	if res.SinkDistinct != emitted {
		t.Errorf("SinkDistinct = %d, want %d (every emission delivered at least once)",
			res.SinkDistinct, emitted)
	}
	if res.SinkDuplicates == 0 {
		t.Error("no duplicates detected — replay after the kills must re-deliver survivors")
	}
	// At-least-once does not suppress: the sink behavior sees every
	// delivery, duplicates included.
	if sinkCalls != res.SinkDistinct+res.SinkDuplicates {
		t.Errorf("sink Process calls = %d, want distinct+dups = %d",
			sinkCalls, res.SinkDistinct+res.SinkDuplicates)
	}
	if res.CommittedOffsets == 0 || res.CommittedOffsets > uint64(emitted) {
		t.Errorf("CommittedOffsets = %d, want in (0, %d]", res.CommittedOffsets, emitted)
	}
}

// TestSimGuaranteeExactlyOnceSuppresses: under exactly-once the dedup
// tables suppress replayed duplicates, so the sink behavior runs
// exactly once per emitted item.
func TestSimGuaranteeExactlyOnceSuppresses(t *testing.T) {
	probes := probe.NewProbeSet()
	var sinkCalls int64
	cfg := guaranteeConfig(t, probes, ckpt.ExactlyOnce, killPlan(), &sinkCalls)
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkHoles != 0 {
		t.Errorf("SinkHoles = %d, want 0", res.SinkHoles)
	}
	emitted := res.Emitted["src"]
	if res.SinkDistinct != emitted {
		t.Errorf("SinkDistinct = %d, want %d", res.SinkDistinct, emitted)
	}
	if res.SinkDuplicates == 0 {
		t.Error("no duplicates detected despite replays")
	}
	if sinkCalls != res.SinkDistinct {
		t.Errorf("sink Process calls = %d, want %d (duplicates suppressed)",
			sinkCalls, res.SinkDistinct)
	}
}

// TestSimGuaranteeDeterminism: the guarantee machinery draws no
// randomness outside the seeded RNG — the same seed replays the same
// checkpoints, kills, replays and dedup outcome byte for byte.
func TestSimGuaranteeDeterminism(t *testing.T) {
	run := func() string {
		probes := probe.NewProbeSet()
		var sinkCalls int64
		cfg := guaranteeConfig(t, probes, ckpt.ExactlyOnce, killPlan(), &sinkCalls)
		s, err := New(cfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v calls=%d", res, sinkCalls)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestSimGuaranteeChurnAborts: a kill during barrier alignment aborts
// the in-flight checkpoint instead of committing a cut that spans the
// pre-kill topology. The server pool runs near saturation so barriers
// queue behind real backlog and alignment spans the kill times.
func TestSimGuaranteeChurnAborts(t *testing.T) {
	probes := probe.NewProbeSet()
	var sinkCalls int64
	plan := &FaultPlan{
		TaskKills: []TaskKill{
			{At: 12.2, Vertex: "server", Count: 1},
			{At: 20.7, Vertex: "server", Count: 1},
			{At: 28.4, Vertex: "server", Count: 1},
		},
		Respawn:      true,
		RestartDelay: 0.5,
	}
	cfg := guaranteeConfig(t, probes, ckpt.AtLeastOnce, plan, &sinkCalls)
	// ~rho 0.95 at p=4: queues hold tens of items, so alignment takes
	// long enough that kills land mid-checkpoint.
	cfg.Vertices["server"] = VertexConfig{NewBehavior: func(int) Behavior {
		return &testServer{mean: 0.019}
	}}
	cfg.CheckpointInterval = 0.25
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsAborted == 0 {
		t.Error("no checkpoint aborted despite kills during alignment")
	}
	if res.CheckpointsCommitted == 0 {
		t.Error("no checkpoint committed between the kills")
	}
	if res.SinkHoles != 0 {
		t.Errorf("SinkHoles = %d, want 0", res.SinkHoles)
	}
	// Near saturation the run may not fully drain before cutoff, so
	// equality with emissions is too strong here; every committed offset
	// must still have reached the sink, and nothing beyond emissions.
	if uint64(res.SinkDistinct) < res.CommittedOffsets {
		t.Errorf("SinkDistinct = %d < CommittedOffsets = %d",
			res.SinkDistinct, res.CommittedOffsets)
	}
	if res.SinkDistinct > res.Emitted["src"] {
		t.Errorf("SinkDistinct = %d > emitted = %d", res.SinkDistinct, res.Emitted["src"])
	}
}

// TestSimGuaranteeDisabledUntouched: with the guarantee off, no
// checkpoint state exists and the result's guarantee fields stay zero.
func TestSimGuaranteeDisabledUntouched(t *testing.T) {
	probes := probe.NewProbeSet()
	cfg := faultConfig(t, probes, 4, killPlan())
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	if s.guar != nil {
		t.Fatal("guarantee state allocated with guarantees disabled")
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsCommitted != 0 || res.ReplayedItems != 0 ||
		res.SinkDistinct != 0 || res.SinkDuplicates != 0 || res.SinkHoles != 0 {
		t.Errorf("guarantee fields non-zero in a disabled run: %+v", res)
	}
}

// statefulServer is a pass-through worker with operator state: how many
// items this instance has processed, and when it saw the first and last.
type statefulServer struct {
	testServer
	seen        int64
	first, last float64
}

func (b *statefulServer) Process(ctx *TaskContext, it *Item) {
	if b.seen == 0 {
		b.first = ctx.Now()
	}
	b.seen++
	b.last = ctx.Now()
	b.testServer.Process(ctx, it)
}

// TestSimGuaranteeOperatorStateNotSnapshotted states the promise the
// guarantee ladder does not make: checkpoints cover source offsets, not
// operator state. Across a worker kill and respawn under ExactlyOnce the
// sink sees every record exactly once, but the killed worker's state is
// gone — its replacement starts empty — and the replay passes records
// through the surviving workers' state a second time.
func TestSimGuaranteeOperatorStateNotSnapshotted(t *testing.T) {
	const killAt, delay = 20.0, 1.0
	probes := probe.NewProbeSet()
	var sinkCalls int64
	cfg := guaranteeConfig(t, probes, ckpt.ExactlyOnce, &FaultPlan{
		TaskKills:    []TaskKill{{At: killAt, Vertex: "server", Count: 1}},
		Respawn:      true,
		RestartDelay: delay,
	}, &sinkCalls)
	var servers []*statefulServer
	cfg.Vertices["server"] = VertexConfig{NewBehavior: func(int) Behavior {
		b := &statefulServer{testServer: testServer{mean: 0.012}}
		servers = append(servers, b)
		return b
	}}
	s, err := New(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	// What is promised holds: no loss, no duplicate reaches the sink UDF.
	emitted := res.Emitted["src"]
	if res.SinkHoles != 0 || res.SinkDistinct != emitted || sinkCalls != emitted {
		t.Fatalf("sink: holes %d, distinct %d, Process calls %d; want 0, %d, %d",
			res.SinkHoles, res.SinkDistinct, sinkCalls, emitted, emitted)
	}
	if res.KilledTasks != 1 || s.respawnedTasks != 1 || res.ReplayedItems == 0 {
		t.Fatalf("killed/respawned/replayed = %d/%d/%d; the scenario exercises nothing",
			res.KilledTasks, s.respawnedTasks, res.ReplayedItems)
	}

	// What is not: the replacement is a fresh Behavior instance whose
	// state begins after the respawn, and nothing restored what the
	// killed instance had accumulated.
	if len(servers) != 5 {
		t.Fatalf("%d server instances created, want 4 + 1 respawned", len(servers))
	}
	respawned := servers[4]
	if respawned.seen == 0 || respawned.first < killAt+delay {
		t.Errorf("respawned instance: %d items from t=%.2f, want a fresh start after t=%.0f",
			respawned.seen, respawned.first, killAt+delay)
	}
	var applied, lost int64
	for _, b := range servers[:4] {
		if b.last <= killAt {
			lost += b.seen // the killed instance: state dropped with the task
		}
		applied += b.seen
	}
	applied += respawned.seen
	if lost == 0 {
		t.Error("the killed worker held no state — the scenario exercises nothing")
	}
	// Replayed records the workers had already processed before the kill
	// update operator state twice: at-least-once below the sinks.
	if applied <= emitted {
		t.Errorf("worker state saw %d updates for %d records; want more (replay re-applies)", applied, emitted)
	}
}
