package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"nephelix/internal/apps"
	"nephelix/internal/obs"
)

// TestObsFaultsDecisionAudit is the acceptance check for the flight
// recorder: a faulted elastic run must leave a JSONL audit trail in
// which EVERY tester-parallelism change — scaler action or injected
// kill — is traceable to a logged event, and the scaler's changes carry
// the model inputs that justified them.
func TestObsFaultsDecisionAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment; skipped in -short mode")
	}
	rec := obs.NewRecorder(0)
	res, err := RunFaults(Env{Recorder: rec}, FaultsQuick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.KilledTasks < 1 {
		t.Fatalf("fault did not fire: %d tasks killed", res.Sim.KilledTasks)
	}
	if rec.Total() > uint64(rec.Len()) {
		t.Fatalf("recorder overflowed (%d events for capacity %d); audit trail incomplete", rec.Total(), rec.Len())
	}

	// Replay the tester vertex's parallelism from the event stream alone.
	// Every decision must have observed exactly the state the previous
	// events produced, and the replay must land on the run's final
	// parallelism — i.e. no change happened off the record.
	current := -1
	decisions, kills := 0, 0
	for i, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindScalingDecision:
			d := ev.Decision
			old, ok := d.Old[apps.PTWorker]
			if !ok {
				t.Fatalf("event %d: decision lacks tester parallelism snapshot", i)
			}
			if current >= 0 && old != current {
				t.Errorf("event %d: decision saw parallelism %d, audit replay says %d — untraced change", i, old, current)
			}
			current = d.New[apps.PTWorker]
			decisions++
			// A decision that changed something must carry its justification.
			if len(d.Actions) > 0 {
				justified := false
				for _, cd := range d.Constraints {
					if cd.Bottleneck || len(cd.Model) > 0 {
						justified = true
						for _, m := range cd.Model {
							if m.Vertex == apps.PTWorker && (m.Lambda <= 0 || m.ServiceMean <= 0) {
								t.Errorf("event %d: tester model inputs not populated: %+v", i, m)
							}
						}
					}
				}
				if !justified {
					t.Errorf("event %d: actions %v recorded without model inputs or bottleneck flag", i, d.Actions)
				}
			}
		case obs.KindTaskKill:
			if ev.Lifecycle.Vertex == apps.PTWorker {
				kills++
				if current >= 0 {
					current--
				}
			}
		case obs.KindTaskRestart:
			if ev.Lifecycle.Vertex == apps.PTWorker {
				current += ev.Lifecycle.Attempts
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no scaling decisions on the audit trail")
	}
	if kills != res.Sim.KilledTasks {
		t.Errorf("audit trail shows %d tester kills, run killed %d", kills, res.Sim.KilledTasks)
	}
	if want := res.Sim.FinalParallelism[apps.PTWorker]; current != want {
		t.Errorf("replayed final parallelism %d, run ended at %d — some change is untraceable", current, want)
	}

	// The exported JSONL is the artifact CI uploads: every line must be a
	// valid event and the line count must match the recorder.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v", lines, err)
		}
	}
	if lines != rec.Len() {
		t.Errorf("JSONL has %d lines, recorder holds %d events", lines, rec.Len())
	}
}
