package master

import "nephelix/internal/qos"

// StepSummary runs an interval from an already merged summary, for the
// external replay tests.
func (l *Loop) StepSummary(rt Runtime, par map[string]int, s *qos.Summary) error {
	return l.step(rt, par, s)
}
