package obs

import (
	"nephelix/internal/core"
)

// NewScalingDecision maps one core.Decision (as the master loop's
// interval or ScaleReactively returns it) into the audit-trail event
// payload. interval is the adjustment-interval ordinal; current is the
// parallelism vector the decision was made against.
func NewScalingDecision(interval int, d *core.Decision, current map[string]int) *ScalingDecision {
	if d == nil {
		return nil
	}
	sd := &ScalingDecision{
		Interval: interval,
		Old:      copyIntMap(current),
		New:      copyIntMap(d.Desired),
	}
	for _, cd := range d.PerConstraint {
		ev := ConstraintDecision{
			Skipped:        cd.Skipped,
			Bottleneck:     cd.Bottleneck,
			Infeasible:     cd.Infeasible,
			Unresolvable:   cd.Unresolvable,
			Coverage:       cd.Coverage,
			LowCoverage:    cd.LowCoverage,
			QueueWaitLimit: jsonSafe(cd.QueueWaitLimit),
			Parallelism:    copyIntMap(cd.Parallelism),
		}
		if cd.Constraint != nil {
			ev.Constraint = cd.Constraint.Name
		}
		for _, vm := range cd.Models {
			ev.Model = append(ev.Model, VertexModelInputs{
				Vertex:      vm.Name,
				Lambda:      jsonSafe(vm.Lambda),
				ServiceMean: jsonSafe(vm.SMean),
				CA2:         jsonSafe(vm.CA2),
				CS2:         jsonSafe(vm.CS2),
				Error:       jsonSafe(vm.E),
				A:           jsonSafe(vm.A),
				B:           jsonSafe(vm.B),
				Current:     vm.Current,
				Min:         vm.Min,
				Max:         vm.Max,
				Notes:       vm.Notes,
			})
		}
		for _, st := range cd.Steps {
			ev.Steps = append(ev.Steps, RebalanceStep{
				Vertex:   st.Vertex,
				From:     st.From,
				To:       st.To,
				Steepest: jsonSafe(st.Steepest),
				RunnerUp: jsonSafe(st.RunnerUp),
				PDelta:   st.PDelta,
				PW:       st.PW,
			})
		}
		sd.Constraints = append(sd.Constraints, ev)
	}
	for _, h := range d.Holds {
		sd.Holds = append(sd.Holds, GatingHold{
			Vertex: h.Vertex, Reason: h.Reason, Proposed: h.Proposed, Kept: h.Kept,
		})
	}
	for _, a := range d.Actions {
		sd.Actions = append(sd.Actions, a.String())
	}
	return sd
}

// copyIntMap snapshots a parallelism vector so later mutation by the
// runtime cannot corrupt recorded events.
func copyIntMap(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
