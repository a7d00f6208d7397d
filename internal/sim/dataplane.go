package sim

import "nephelix/internal/obs"

// simDataplane holds the scraper's state between adjustment ticks: the
// previous sample time and obs.DataplaneRates, which derives interval
// rates exactly as for the engine. Virtual time stands in for wall
// time; counters are item-grained (the sim moves items, the engine
// moves batches), which keeps the fractions the backpressure heuristic
// classifies on comparable across layers.
type simDataplane struct {
	lastAt float64
	rates  obs.DataplaneRates
	busy   []obs.TaskBusy // scratch, reused across scrapes
}

// scrapeDataplane samples the simulated data plane and feeds telemetry
// (one snapshot per adjustment interval). No-op without telemetry.
//
// Per-edge occupancy is what the channel counters attribute to the
// consumer's shared input queue plus the items currently stalled at
// that queue; capacity is QueueCapacityItems times the consumer's task
// count — an upper bound, since inbound edges of a vertex share the
// per-task queue. Channels of killed consumers are excluded from the
// occupancy walk (their residual attributed items never pop).
func (s *Sim) scrapeDataplane() {
	if s.cfg.Telemetry == nil {
		return
	}
	if s.dp == nil {
		s.dp = &simDataplane{}
	}
	dp := s.dp
	interval := s.now - dp.lastAt
	if interval <= 0 {
		interval = s.cfg.AdjustmentInterval
	}
	snap := obs.DataplaneSnapshot{
		At:              s.now,
		Layer:           "sim",
		IntervalSeconds: interval,
	}

	// One entry per job edge, in graph order (the snapshot keeps the
	// slice); an edge no channel was ever made for stays unnamed.
	edges := make([]obs.DataplaneEdge, len(s.cfg.Graph.Edges()))
	for _, ch := range s.chanSlots {
		de := &edges[ch.graphEdge]
		if de.Edge == "" {
			de.Edge, de.Producer, de.Consumer = ch.edgeName, ch.id.Edge.Source, ch.id.Edge.Target
		}
		de.Pushes += uint64(ch.accepted)
		de.PushFails += uint64(ch.stallItems)
		de.Pops += uint64(ch.popped)
		if ch.closed {
			continue
		}
		de.Rings++
		de.Occupancy += int(max(0, ch.accepted-ch.popped))
		for _, b := range ch.stalled {
			de.Occupancy += len(b.items)
		}
		de.HighWater = max(de.HighWater, int(ch.highWater))
	}

	// Busy totals of every live task (active, then draining in id order).
	busy := dp.busy[:0]
	add := func(t *simTask) {
		if t.name == "" {
			t.name = t.id.String()
		}
		busy = append(busy, obs.TaskBusy{Vertex: t.id.Vertex, Task: t.name, Seconds: t.busyAccum})
	}
	for _, name := range s.vertexOrder {
		v := s.vertices[name]
		for _, t := range v.tasks {
			add(t)
		}
		for _, t := range sortedDraining(v.draining) {
			add(t)
		}
	}
	dp.busy = busy

	snap.Edges = edges[:0]
	for _, de := range edges {
		if de.Edge == "" {
			continue
		}
		if v := s.vertices[de.Consumer]; v != nil {
			de.Capacity = s.cfg.QueueCapacityItems * len(v.tasks)
		}
		snap.Edges = append(snap.Edges, de)
	}
	dp.rates.Derive(snap.Edges, busy, interval)
	dp.lastAt = s.now

	s.cfg.Telemetry.ObserveDataplane(snap, s.cfg.Recorder)
}
