// Command bench is the repository's benchmark: five named workloads,
// end-to-end metrics with a regression bound each, per-layer metrics
// measured from outside through the packages' public functions, and a
// traced pass that writes spans. See README.md in this directory.
//
//	go run ./bench --workload steady-instant --seed 1 --seconds 10 --trace 0
//	go run ./bench                      # every workload, both passes
//	go run ./bench -repeat 3            # spread of every end-to-end metric
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// result is one run of one workload.
type result struct {
	metrics   *metricSet
	attempted uint64
	failed    uint64
	// errs are failed output checks; any entry makes the run incorrect.
	errs  []string
	notes []string
}

func newResult() *result { return &result{metrics: newMetricSet()} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// runWorkload runs one pass of one workload: the untraced pass reports
// the end-to-end metrics, the traced pass the per-layer ones.
func runWorkload(name string, seed int64, seconds int, traced bool) (*result, error) {
	if c, ok := engineCases[name]; ok {
		if traced {
			return runEngineTraced(c, seed, seconds)
		}
		return runEngineUntraced(c, seed, seconds)
	}
	if c, ok := simCases[name]; ok {
		if traced {
			return runSimTraced(c, seed, seconds)
		}
		return runSimUntraced(c, seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// report prints a pass's metrics by name with unit and sample count,
// then the JSON line the driver reads. defs selects and orders the
// metrics; one the pass did not produce reads 0.
func report(w io.Writer, name string, defs []metricDef, r *result) error {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", name, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := r.metrics.values[d.Name]
		fmt.Fprintf(w, "   %-32s %16.6g %-9s n=%d\n", d.Name, v, d.Unit, r.metrics.samples[d.Name])
		out[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", e)
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.errs) == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// repeatSuite runs the untraced pass of every selected workload n times
// on consecutive seeds and prints min/median/max and the relative
// spread of each end-to-end metric. It reports whether every spread
// stayed within the metric's bound.
func repeatSuite(names []string, seed int64, seconds, n int) (bool, error) {
	ok := true
	for _, name := range names {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			r, err := runWorkload(name, seed+int64(i), seconds, false)
			if err != nil {
				return false, err
			}
			if len(r.errs) > 0 {
				return false, report(os.Stdout, name, endToEnd, r)
			}
			for _, d := range endToEnd {
				series[d.Name] = append(series[d.Name], r.metrics.values[d.Name])
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", name, n, seed, seed+int64(n)-1)
		for _, d := range endToEnd {
			v := series[d.Name]
			spread := relSpread(v)
			verdict := "ok"
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("   %-18s min %12.6g  median %12.6g  max %12.6g  spread %6.2f%%  bound %4.0f%%  %s\n",
				d.Name, quantile(v, 0), median(v), quantile(v, 1), spread*100, d.Bound*100, verdict)
		}
	}
	return ok, nil
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for keys, engine.Config.Seed and the simulator")
	seconds := flag.Int("seconds", 10, "seconds one run measures")
	trace := flag.String("trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics, spans); both")
	repeat := flag.Int("repeat", 0, "run the untraced suite N times and print the spread of every end-to-end metric")
	flag.Parse()

	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be in [1, 60]")
		os.Exit(2)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0, 1 or both")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		known := make([]string, len(workloads))
		for i, w := range workloads {
			known[i] = w.Name
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, known)
		os.Exit(2)
	}

	// min(nproc, 4): the reference job has four busy goroutines; more
	// threads only add scheduler noise.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("bench: GOMAXPROCS=%d seed=%d seconds=%d trace=%s\n", procs, *seed, *seconds, *trace)

	if *repeat > 0 {
		ok, err := repeatSuite(names, *seed, *seconds, *repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	correct := true
	pass := func(name, title string, defs []metricDef, traced bool) {
		r, err := runWorkload(name, *seed, *seconds, traced)
		if err == nil {
			err = report(os.Stdout, title, defs, r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		correct = correct && len(r.errs) == 0
	}
	for _, name := range names {
		if *trace != "1" {
			pass(name, name, endToEnd, false)
		}
		if *trace != "0" {
			pass(name, name+" (traced)", perLayer, true)
		}
	}
	if !correct {
		os.Exit(1)
	}
}
