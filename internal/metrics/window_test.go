package metrics

import (
	"math"
	"testing"
)

func TestIntervalStatsSnapshotResets(t *testing.T) {
	var s IntervalStats
	s.Add(2)
	s.Add(4)
	count, mean, cv := s.Snapshot()
	if count != 2 || mean != 3 {
		t.Errorf("snapshot: count=%d mean=%v, want 2/3", count, mean)
	}
	wantCV := math.Sqrt(2) / 3 // std of {2,4} is sqrt(2)
	if !almostEqual(cv, wantCV, 1e-12) {
		t.Errorf("snapshot cv: got %v, want %v", cv, wantCV)
	}
	if s.w.Count() != 0 {
		t.Error("Snapshot did not reset the interval")
	}
}
