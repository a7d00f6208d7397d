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

// edgeFlow is a job edge's data-plane totals in items: pushes into a
// consumer's queue, pushes that hit a full one (a stalled batch is
// re-accepted — and re-counted as pushed — once space frees), pops.
type edgeFlow struct {
	pushes, pushFails, pops int64
}

// closeChannel closes ch and adds its counters to its edge's retired
// totals, so the data plane's totals stay cumulative while the scraper
// walks only the open channels. A closed channel's counters can still
// move — a producer that finished draining leaves batches in flight,
// which arrive and pop afterwards — and each such change goes to the
// retired totals as it happens. A closed channel lets go of its slot
// once its FIFO is empty (here or in popBatch).
func (s *Sim) closeChannel(ch *simChannel) {
	if ch.closed {
		return
	}
	ch.closed = true
	r := &s.retired[ch.graphEdge]
	r.pushes += ch.accepted
	r.pushFails += ch.stallItems
	r.pops += ch.popped
	if ch.fifo.len() == 0 {
		s.chanSlots[ch.slot] = nil
	}
}

// scrapeDataplane samples the simulated data plane and feeds telemetry
// (one snapshot per adjustment interval). No-op without telemetry.
//
// Per-edge occupancy is what the open channels attribute to their
// consumer's shared input queue plus the items currently stalled at
// that queue; capacity is QueueCapacityItems times the consumer's task
// count — an upper bound, since inbound edges of a vertex share the
// per-task queue. A channel is open while both its tasks live, and it
// is then in its consumer's in list: the walk covers exactly the open
// channels, so a killed consumer's residual attributed items, which
// never pop, are not counted.
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
	// slice), starting from its closed channels' totals.
	snap.Edges = make([]obs.DataplaneEdge, len(s.retired))
	for i, e := range s.cfg.Graph.Edges() {
		r := s.retired[i]
		snap.Edges[i] = obs.DataplaneEdge{
			Edge: s.edgeNames[i], Producer: e.Source, Consumer: e.Target,
			Pushes: uint64(r.pushes), PushFails: uint64(r.pushFails), Pops: uint64(r.pops),
		}
		if v := s.vertices[e.Target]; v != nil {
			snap.Edges[i].Capacity = s.cfg.QueueCapacityItems * len(v.tasks)
		}
	}

	// Busy totals of every live task; the counters and occupancy of its
	// open input channels.
	busy := dp.busy[:0]
	s.eachLiveTask(func(t *simTask) {
		if t.name == "" {
			t.name = t.id.String()
		}
		busy = append(busy, obs.TaskBusy{Vertex: t.id.Vertex, Task: t.name, Seconds: t.busyAccum})
		for _, ch := range t.in {
			de := &snap.Edges[ch.graphEdge]
			de.Rings++
			de.Pushes += uint64(ch.accepted)
			de.PushFails += uint64(ch.stallItems)
			de.Pops += uint64(ch.popped)
			de.Occupancy += int(max(0, ch.accepted-ch.popped))
			for i := range ch.arrived {
				de.Occupancy += len(ch.fifo.at(i).items)
			}
			de.HighWater = max(de.HighWater, int(ch.highWater))
		}
	})
	dp.busy = busy

	dp.rates.Derive(snap.Edges, busy, interval)
	dp.lastAt = s.now

	s.cfg.Telemetry.ObserveDataplane(snap, s.cfg.Recorder)
}
