package ts

// Test view of a series, read only by this package's tests.

// Value returns the latest recorded value: the running total for
// counters, the last sample otherwise (0 when empty or nil).
func (s *Series) Value() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kind == Counter {
		return s.total
	}
	if !s.full && s.next == 0 {
		return 0
	}
	last := s.next - 1
	if last < 0 {
		last = len(s.ring) - 1
	}
	return s.ring[last].V
}
