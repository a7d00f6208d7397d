package main

import (
	"runtime"
	"sort"
	"time"

	"nephelix/internal/engine"
	"nephelix/internal/metrics/sketch"
)

// The traced pass (--trace 1): the micro section, then the workload once
// more with tracing on. It reports the per-layer metrics, writes the
// spans to bench/out/trace-<workload>.jsonl and never feeds an
// end-to-end metric.

const (
	// maxSpanRecords bounds how many traced records' spans reach the
	// trace file; the per-layer statistics use every stamped record.
	maxSpanRecords = 1 << 14
	tracedSetups   = 3
)

// runEngineTraced is the --trace 1 run of an engine workload: a short
// untraced reference pass, then the traced pass.
func runEngineTraced(c engineCase, seed int64, seconds int) (*result, error) {
	res := newResult()
	out := res.metrics
	if err := runMicro(seed, out, res); err != nil {
		return nil, err
	}

	var submits, firsts []float64
	for i := 0; i < tracedSetups; i++ {
		submit, first, err := measureSetup(c, seed)
		if err != nil {
			return nil, err
		}
		submits = append(submits, ms(submit))
		firsts = append(firsts, ms(first))
	}
	out.set("engine.submit_ms", median(submits), tracedSetups)
	out.set("engine.first_record_ms", median(firsts), tracedSetups)

	refSeconds := max(3, seconds/2)
	ref, err := runEnginePass(c, seed, 2*time.Second, time.Duration(refSeconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	p, err := runEnginePass(c, seed, engineWarmUp, time.Duration(seconds)*time.Second, true)
	if err != nil {
		return nil, err
	}
	res.errs = append(res.errs, ref.errs...)
	res.errs = append(res.errs, p.errs...)
	res.attempted = p.job.gen.seq
	res.failed = p.failed
	p.lagNote(res)

	p.perLayer(out)
	if base := ref.cpuPerMrec(); base > 0 {
		out.set("engine.trace_overhead_frac", (p.cpuPerMrec()-base)/base, int(p.delivered()))
	}

	if c.rate == 0 {
		// The throughput workload: a single-thread baseline and the
		// per-record cost reconciliation.
		prev := runtime.GOMAXPROCS(1)
		single, err := runEnginePass(c, seed, time.Second, 2*time.Second, false)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		res.errs = append(res.errs, single.errs...)
		out.set("engine.gomaxprocs1_rec_s", quiet(single.rates(), "higher"), single.measure)
		p.reconcile(out, res)
	}

	log := p.spans()
	if err := log.write(tracePath(c.name)); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", len(log.spans), tracePath(c.name))
	return res, nil
}

// perLayer derives the engine rows of a traced pass.
func (p *enginePass) perLayer(out *metricSet) {
	g, ws := p.job.gen, p.measured()
	out.set("engine.drain_ms", ms(p.drain), 0)
	if n := int(g.lag.Count()); n > 0 {
		out.set("engine.gen_lag_p50_ms", g.lag.Quantile(0.5)*1e3, n)
		out.set("engine.gen_lag_p99_ms", g.lag.Quantile(0.99)*1e3, n)
	}
	out.set("engine.emit_block_frac", g.inEmit.Seconds()/(time.Duration(p.measure)*time.Second).Seconds(), 0)

	var hop1, hop2, work []float64
	for _, st := range p.measuredStamps() {
		hop1 = append(hop1, float64(max(0, st.workEnter-st.emitReturn))/1e6)
		hop2 = append(hop2, float64(max(0, st.sinkEnter-st.workExit))/1e6)
		work = append(work, float64(st.workExit-st.workEnter)/1e3)
	}
	out.set("engine.hop1_transit_p50_ms", median(hop1), len(hop1))
	out.set("engine.hop2_transit_p50_ms", median(hop2), len(hop2))
	out.set("engine.work_service_us", median(work), len(work))

	all := sketch.New(latencyAlpha)
	var maxNs int64
	for i := range ws {
		all.Merge(ws[i].lat)
		maxNs = max(maxNs, ws[i].maxNs)
	}
	out.set("engine.latency_p99_ms", all.Quantile(0.99)*1e3, int(all.Count()))
	out.set("engine.latency_p999_ms", all.Quantile(0.999)*1e3, int(all.Count()))
	out.set("engine.latency_max_ms", float64(maxNs)/1e6, int(all.Count()))

	// Data-plane snapshots, one per measured second.
	var workBusy, sinkBusy, occupancy, parked []float64
	for _, snap := range p.dp {
		for _, e := range snap.Edges {
			switch e.Edge {
			case "src->work":
				workBusy = append(workBusy, e.ConsumerBusy)
			case "work->sink":
				sinkBusy = append(sinkBusy, e.ConsumerBusy)
			}
			occupancy = append(occupancy, e.OccupancyFrac)
		}
		if snap.Wheel != nil {
			parked = append(parked, snap.Wheel.ParkedFrac)
		}
	}
	out.set("engine.work_busy_frac", mean(workBusy), len(workBusy))
	out.set("engine.sink_busy_frac", mean(sinkBusy), len(sinkBusy))
	out.set("engine.ring_occupancy_frac", mean(occupancy), len(occupancy))
	out.set("engine.wheel_parked_frac", mean(parked), len(parked))
	if n := len(p.dp); n > 0 {
		first, last := p.dp[0], p.dp[n-1]
		var pushes, fails uint64
		for _, e := range last.Edges {
			pushes += e.Pushes
			fails += e.PushFails
		}
		if pushes+fails > 0 {
			out.set("engine.ring_stall_frac", float64(fails)/float64(pushes+fails), int(pushes+fails))
		}
		var hits, misses int64
		for _, s := range last.Pool {
			hits += s.Hits
			misses += s.Misses
		}
		if hits+misses > 0 {
			out.set("engine.pool_hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
		}
		if first.Wheel != nil && last.Wheel != nil && last.At > first.At {
			out.set("engine.wheel_fires_s", float64(last.Wheel.Fires-first.Wheel.Fires)/(last.At-first.At), n)
		}
	}

	// The engine's own tracer splits a hop into batch delay and queue wait.
	var queueWait, batchDelay float64
	var hops int64
	for _, edge := range []string{"src->work", "work->sink"} {
		n, batch, _, wait, _ := p.tracer.EdgeAttribution(edge)
		hops += n
		queueWait += wait
		batchDelay += batch
	}
	out.set("engine.edge_queue_wait_ms", queueWait*1e3, int(hops))
	out.set("engine.edge_batch_ms", batchDelay*1e3, int(hops))

	if n := p.delivered(); n > 0 {
		recs := float64(n)
		// The generator's sequence chunks are the harness's own
		// allocation: 8 bytes a record, one object per seqChunk records.
		allocs := float64(p.mem1.Mallocs-p.mem0.Mallocs) - recs/seqChunk
		bytes := float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) - 8*recs
		out.set("engine.allocs_per_rec", max(0, allocs)/recs, int(n))
		out.set("engine.bytes_per_rec", max(0, bytes)/recs, int(n))
	}
	out.set("engine.heap_peak_mb", float64(p.heapPeak)/(1<<20), p.measure+1)
	out.set("engine.gc_pause_ms", float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, int(p.mem1.NumGC-p.mem0.NumGC))
	out.set("engine.lost_records", float64(p.exec.LostRecords()), 0)
	out.set("engine.dropped_reports", float64(p.exec.DroppedReports()), 0)
}

// reconcile prints the per-record cost table of the throughput
// workload: layer costs measured in isolation against what a record
// costs end to end, the remainder named.
func (p *enginePass) reconcile(out *metricSet, res *result) {
	thr := quiet(p.rates(), "higher")
	if thr <= 0 {
		return
	}
	cores := float64(runtime.GOMAXPROCS(0))
	total := cores * 1e9 / thr
	v := out.values
	rows := []struct {
		name string
		ns   float64
	}{
		{"ring.xfer_ns x 2 hops / 256 records a batch", v["ring.xfer_ns"] * 2 / 256},
		{"qos.reporter_record_ns x 2 tasks", v["qos.reporter_record_ns"] * 2},
		{"qos.channel_record_ns x 2 hops / 256", v["qos.channel_record_ns"] * 2 / 256},
		{"engine.work_service_us (worker UDF, its gate push inside)", v["engine.work_service_us"] * 1e3},
		{"sink UDF (the benchmark's own, timed in isolation)", sinkCost()},
	}
	res.notef("reconciliation, ns per record (%g cores x 1e9 / %.0f rec/s = %.1f):", cores, thr, total)
	sum := 0.0
	for _, r := range rows {
		res.notef("  %-58s %9.1f", r.name, r.ns)
		sum += r.ns
	}
	res.notef("  %-58s %9.1f", "engine.unattributed_ns_per_rec (gate routing, pool, handleBatch, generator, idle)", total-sum)
	out.set("engine.unattributed_ns_per_rec", total-sum, 0)
}

// sinkCost times the benchmark's sink UDF alone, in ns per record.
func sinkCost() float64 {
	const n = 1 << 20
	t0 := time.Now()
	s := newSink(t0, time.Second, 4)
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	return timeOp(microReps, n, func() {
		for i := range seqs {
			s.Process(nil, engine.Record{Value: &seqs[i], EmitTime: t0})
		}
	})
}

// spans turns the stamped records of a traced pass into spans: a root
// "record" from due time to sink arrival, and under it
// gen_lag → emit → hop1 → work → hop2. Times are nanoseconds since the
// generator's origin.
func (p *enginePass) spans() *spanLog {
	log := newSpanLog()
	sts := p.measuredStamps()
	for _, st := range sts[:min(len(sts), maxSpanRecords)] {
		log.addNs("record", "", st.seq, st.due, st.sinkEnter)
		log.addNs("gen_lag", "record", st.seq, st.due, st.emitEnter)
		log.addNs("emit", "record", st.seq, st.emitEnter, st.emitReturn)
		// A consumer on another core can pick the record up before Emit
		// returns to the generator; the hop then starts at the pick-up.
		log.addNs("hop1", "record", st.seq, min(st.emitReturn, st.workEnter), st.workEnter)
		log.addNs("work", "record", st.seq, st.workEnter, st.workExit)
		log.addNs("hop2", "record", st.seq, min(st.workExit, st.sinkEnter), st.sinkEnter)
	}
	return log
}

// runSimTraced is the --trace 1 run of a simulator workload: one run
// with a span per adjustment interval, then a replay of the captured
// summaries through qos and core with a span per call.
func runSimTraced(c simCase, seed int64, seconds int) (*result, error) {
	res := newResult()
	out := res.metrics
	if err := runMicro(seed, out, res); err != nil {
		return nil, err
	}

	log := newSpanLog()
	start := time.Now()
	r, err := runSim(c, seed, seconds, log)
	if err != nil {
		return nil, err
	}
	replayStart := time.Now()
	durs := controlReplay(r.cfg, r.infos, log)
	log.add("replay", "pass", 0, replayStart, time.Now())
	log.add("pass", "", 0, start, time.Now())

	var control float64
	for _, d := range durs {
		for _, ns := range d {
			control += ns
		}
	}
	out.set("sim.new_ms", ms(r.newTime), 1)
	if r.virtual > 0 {
		out.set("sim.wall_per_sim_s", ms(r.wall)/r.virtual, len(r.seg))
	}
	out.set("sim.allocs_per_item", float64(r.mallocs)/float64(r.items), int(r.items))
	out.set("sim.heap_peak_mb", float64(r.heapPeak)/(1<<20), len(r.seg)/16)
	out.set("sim.control_share_frac", control/float64(r.wall.Nanoseconds()), len(r.infos))
	out.set("sim.scale_ups", float64(r.res.ScaleUps), 0)
	out.set("sim.scale_downs", float64(r.res.ScaleDowns), 0)
	peak := 0
	for _, n := range r.res.PeakParallelism {
		peak = max(peak, n)
	}
	out.set("sim.peak_parallelism", float64(peak), 0)
	out.set("sim.dropped_items", float64(r.res.DroppedItems), 0)
	ps := r.res.Probes[c.probe]
	out.set("sim.p95_ms", ps.P95*1e3, int(ps.Count))
	out.set("sim.p99_ms", ps.P99*1e3, int(ps.Count))
	out.set("sim.mean_cpu_util", r.res.MeanCPUUtilization, 0)
	names := make([]string, 0, len(r.res.Probes))
	for n := range r.res.Probes {
		names = append(names, n)
	}
	sort.Strings(names)
	tail := 1.0
	for _, n := range names {
		if q := r.res.Probes[n]; q.TailQuantile > 0 {
			tail = min(tail, q.TailFulfillment)
		} else {
			tail = 0
		}
	}
	out.set("sim.tail_fulfil_frac", tail, ps.Intervals)

	res.attempted = uint64(r.items)
	res.failed = uint64(r.res.DroppedItems)
	if err := log.write(tracePath(c.name)); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", len(log.spans), tracePath(c.name))
	res.notef("%.2f s wall for %.0f virtual s; replayed control path took %.1f ms", r.wall.Seconds(), r.virtual, control/1e6)
	return res, nil
}
