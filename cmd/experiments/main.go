// Command experiments regenerates the paper's evaluation and this
// repository's own: every row of experiments.Table (DESIGN.md,
// "Experiment index", says what each shows) prints its shape checks and
// writes its CSV/JSON artifacts.
//
// Usage:
//
//	experiments [-out DIR] [-paper] [-guarantee MODE] [-ckpt.interval S]
//	            [-obs.addr ADDR [-obs.linger D]] [ROW|all]
//
// Without -paper the quick (laptop-scale) variants run; -paper uses the
// full 130-node topology and 60 s steps (minutes of wall-clock time).
// -guarantee (at-most-once | at-least-once | exactly-once) and
// -ckpt.interval apply to the faults row; the guarantees row sweeps all
// modes and intervals regardless.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"nephelix/internal/ckpt"
	"nephelix/internal/experiments"
	"nephelix/internal/obs"
)

func main() {
	out := flag.String("out", "results", "directory for CSV output")
	paper := flag.Bool("paper", false, "run at full paper scale (slow)")
	guarantee := flag.String("guarantee", "at-most-once", "processing guarantee for the faults experiment: at-most-once | at-least-once | exactly-once")
	ckptInterval := flag.Float64("ckpt.interval", 1, "checkpoint interval in virtual seconds (guaranteed faults run)")
	obsAddr := flag.String("obs.addr", "", "serve introspection endpoints (/healthz, /metrics, /timeseries, /slo, /dataplane, /dash, /debug/pprof, /scaler/decisions) on this address")
	obsLinger := flag.Duration("obs.linger", 0, "keep the introspection server alive this long after the experiments finish (for scraping a completed run)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), usage())
		flag.PrintDefaults()
	}
	flag.Parse()

	g, err := ckpt.ParseGuarantee(*guarantee)
	check(err)
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	rows, err := selectRows(which)
	check(err)
	serve := func(experiments.Env) {}
	if *obsAddr != "" {
		serve, err = serveRunning(*obsAddr)
		check(err)
		fmt.Printf("introspection on http://%s\n", *obsAddr)
	}
	check(run(rows, *out, experiments.Env{Paper: *paper, Guarantee: g, CheckpointInterval: *ckptInterval}, serve))
	if *obsAddr != "" && *obsLinger > 0 {
		fmt.Printf("lingering %s for scrapes of http://%s\n", *obsLinger, *obsAddr)
		time.Sleep(*obsLinger)
	}
}

// usage spells the subcommand list from the table.
func usage() string {
	return "usage: experiments [flags] [" + experiments.Names() + "|all]"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// selectRows returns the table rows which names: one, or all of them.
func selectRows(which string) ([]experiments.Experiment, error) {
	if which == "all" {
		return experiments.Table, nil
	}
	for _, row := range experiments.Table {
		if row.Name == which {
			return []experiments.Experiment{row}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s|all)", which, experiments.Names())
}

// run executes rows in order, each in base with instruments of its own
// (handed to serve before the row starts), prints its report, writes its
// artifacts into outDir and fails if any shape check did.
func run(rows []experiments.Experiment, outDir string, base experiments.Env, serve func(experiments.Env)) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	failures := 0
	for _, row := range rows {
		env := experiments.NewEnv()
		env.Paper, env.Guarantee, env.CheckpointInterval = base.Paper, base.Guarantee, base.CheckpointInterval
		serve(env)
		start := time.Now()
		out, err := row.Run(env)
		if err != nil {
			return err
		}
		fmt.Printf("\n=== %s (%s) ===\n%s", row.Title, time.Since(start).Round(time.Millisecond), out.Checks)
		for _, line := range out.Lines {
			fmt.Println(line)
		}
		for _, a := range out.Artifacts {
			if err := a.Save(outDir, "  "); err != nil {
				return err
			}
		}
		failures += len(out.Checks.Failed())
	}
	if failures > 0 {
		return fmt.Errorf("%d shape check(s) failed", failures)
	}
	fmt.Println("\nall shape checks passed")
	return nil
}

// serveRunning binds addr and returns the function that points the
// introspection endpoints at a row's instruments: the server outlives
// every row and always shows the one that is running (or ran last).
func serveRunning(addr string) (func(experiments.Env), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	var current atomic.Pointer[http.Handler]
	show := func(env experiments.Env) {
		h := obs.NewHandler(obs.ServerConfig{Recorder: env.Recorder, Telemetry: env.Telemetry, Tracer: env.Tracer})
		current.Store(&h)
	}
	show(experiments.Env{})
	srv := &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*current.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }() // ends with the process
	return show, nil
}
