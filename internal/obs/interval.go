package obs

import (
	"nephelix/internal/master"
	"nephelix/internal/model"
	"nephelix/internal/probe"
)

// IntervalObserver returns the master-loop observer both runtimes attach:
// per adjustment interval the telemetry scrape, then the runtime's own
// data-plane scrape (dataplane), the SLO trackers, and the decision's
// audit event on rec carrying the residual monitor's drift flags. That
// order fixes the flight recorder's sequence numbers. tel and rec may be
// nil.
func IntervalObserver(tel *Telemetry, rec *Recorder, probes *probe.ProbeSet,
	constraints []*model.Constraint, dataplane func()) master.Observer {
	targets := SLOTargetsFromConstraints(constraints)
	return func(iv master.Interval) {
		drift := tel.ObserveInterval(iv.Now, iv.Summary, iv.Decision, iv.Parallelism)
		dataplane()
		tel.ObserveSLOs(iv.Now, probes, targets, rec)
		if iv.Decision != nil && rec != nil {
			sd := NewScalingDecision(iv.Round, iv.Decision, iv.Parallelism)
			sd.Drift = drift
			rec.RecordDecision(iv.Now, sd)
		}
	}
}
