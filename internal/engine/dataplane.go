package engine

import (
	"strconv"
	"time"

	"nephelix/internal/model"
	"nephelix/internal/obs"
)

// dataplaneScraper derives one obs.DataplaneSnapshot per adjustment
// interval from the sharded data plane's cumulative counters: ring
// push/stall/pop totals per edge, emitter pacing per source shard,
// park/wake totals per consumer vertex, the lanes' deadline flush passes
// and the batch pool's hit/miss counts. It runs on the master
// goroutine only; all cross-goroutine reads go through the counters' own
// atomic (or mutex) snapshots, so sampling adds no synchronization to
// the hot path. The per-edge rates are derived by obs.DataplaneRates,
// shared with the simulator; the lane and pool deltas below exist only
// here.
type dataplaneScraper struct {
	lastAt   time.Time
	rates    obs.DataplaneRates
	prevEmit map[string]int64 // per-lane cumulative emitted, keyed by task/shard
	prevPool [poolShards]poolShardStats
}

// scrapeDataplane samples the data plane and feeds telemetry (master
// loop, once per adjustment interval). No-op without telemetry.
func (ex *execution) scrapeDataplane() {
	if ex.cfg.Telemetry == nil {
		return
	}
	if ex.dp == nil {
		ex.dp = &dataplaneScraper{lastAt: ex.start, prevEmit: make(map[string]int64)}
	}
	dp := ex.dp
	now := time.Now()
	interval := now.Sub(dp.lastAt).Seconds()
	if interval <= 0 {
		interval = ex.cfg.AdjustmentInterval.Seconds()
	}
	snap := obs.DataplaneSnapshot{
		At:              time.Since(ex.start).Seconds(),
		Layer:           "engine",
		IntervalSeconds: interval,
	}

	ex.mu.Lock()
	// Per-edge ring walk: every producer emitter's gates hold the rings
	// into each consumer; aggregate them per job edge. Consumer vertices'
	// park/wake totals and every lane's deadline flush passes ride along.
	edges := make(map[model.EdgeKey]*obs.DataplaneEdge)
	var busy []obs.TaskBusy
	flushes := ex.retiredFlushes
	for _, name := range ex.order {
		consumer := obs.DataplaneConsumer{Vertex: name}
		for _, t := range ex.vertices[name].tasks {
			busy = append(busy, obs.TaskBusy{Vertex: name, Task: t.id.String(), Seconds: float64(t.busyNs.Load()) / 1e9})
			consumer.Parks += t.pk.parks.Load()
			consumer.Wakes += t.pk.wakes.Load()
			for _, e := range t.emitters {
				flushes += e.flushes.Load()
				for _, g := range e.gates {
					de := edges[g.edge]
					if de == nil {
						de = &obs.DataplaneEdge{Edge: g.edge.String(), Producer: g.edge.Source, Consumer: g.edge.Target}
						edges[g.edge] = de
					}
					for _, ref := range g.Consumers() {
						st := ref.ring.Stats()
						de.Rings++
						de.Occupancy += ref.ring.Len()
						de.Capacity += ref.ring.Cap()
						de.HighWater = max(de.HighWater, int(st.HighWater))
						de.Pushes += st.Pushes
						de.PushFails += st.PushFails
						de.Pops += st.Pops
					}
				}
			}
		}
		if _, isSource := ex.spec.sources[name]; !isSource {
			snap.Consumers = append(snap.Consumers, consumer)
		}
	}

	// Source emitter lanes: intended vs actual emit rate, park/wake.
	for _, name := range ex.order {
		vs := ex.vertices[name]
		for _, t := range vs.tasks {
			if t.src == nil {
				continue
			}
			n := int(vs.count.Load())
			if n < 1 {
				n = 1
			}
			shards := len(t.emitters)
			intended := t.src.Schedule.Rate(snap.At) / float64(n*shards)
			if intended < 0 {
				intended = 0
			}
			for _, e := range t.emitters {
				emitted := e.emitCount.Load()
				key := t.id.String() + "/" + strconv.Itoa(e.shard)
				var d int64
				if prev, ok := dp.prevEmit[key]; ok && emitted >= prev {
					d = emitted - prev
				} else {
					d = emitted
				}
				dp.prevEmit[key] = emitted
				actual := float64(d) / interval
				lag := 0.0
				if intended > 0 && actual < intended {
					lag = (intended - actual) / intended
				}
				snap.Shards = append(snap.Shards, obs.DataplaneShard{
					Vertex:       name,
					Task:         t.id.String(),
					Shard:        e.shard,
					Emitted:      emitted,
					ActualRate:   actual,
					IntendedRate: intended,
					LagFrac:      lag,
					Parks:        e.pk.parks.Load(),
					Wakes:        e.pk.wakes.Load(),
				})
			}
		}
	}
	ex.mu.Unlock()

	// Per-edge interval rates, in deterministic edge order.
	for _, e := range ex.spec.graph.Edges() {
		if de := edges[e.Key()]; de != nil {
			snap.Edges = append(snap.Edges, *de)
		}
	}
	dp.rates.Derive(snap.Edges, busy, interval)

	snap.Wheel = &obs.DataplaneWheel{Fires: flushes}

	ps := ex.pool.stats()
	for i := range ps {
		dh := ps[i].Hits - dp.prevPool[i].Hits
		dm := ps[i].Misses - dp.prevPool[i].Misses
		rate := 1.0
		if dh+dm > 0 {
			rate = float64(dh) / float64(dh+dm)
		}
		snap.Pool = append(snap.Pool, obs.DataplanePoolShard{
			Shard: i, Hits: ps[i].Hits, Misses: ps[i].Misses, Puts: ps[i].Puts, HitRate: rate,
		})
	}
	dp.prevPool = ps
	dp.lastAt = now

	ex.cfg.Telemetry.ObserveDataplane(snap, ex.cfg.Recorder)
}
