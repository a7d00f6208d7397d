package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nephelix/internal/apps"
	"nephelix/internal/ckpt"
	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// Experiment is one row of Table: a subcommand of cmd/experiments.
type Experiment struct {
	// Name is the subcommand; Title heads the printed report.
	Name, Title string
	// Run executes the experiment at the scale env selects, observed by
	// env's instruments alone.
	Run func(env Env) (*Outcome, error)
}

// Table is every experiment there is, in the order `all` runs them.
// Adding one is adding a row.
var Table = []Experiment{
	{"fig3", "Figure 3: batching trade-off under static provisioning", fig3Row},
	{"fig5", "Figure 5: Rebalance solution-candidate surface", fig5Row},
	{"fig6", "Figure 6: elastic vs unelastic PrimeTester", fig6Row},
	{"taskhours", "Section V-A: task-hours vs latency constraint", taskHoursRow},
	{"fig8", "Figure 8: TwitterSentiment under reactive scaling", fig8Row},
	{"faults", "Fault injection: tester-task kill mid-plateau, elastic recovery", faultsRow},
	{"guarantees", "Processing guarantees: mode sweep under mid-plateau kill", guaranteesRow},
	{"tails", "Tails: sketch validation, p99 attribution, SLO budgets", tailsRow},
	{"tailscaler", "Tail scaler: percentile vs mean constraints on the bursty trace", tailScalerRow},
	{"dataplane", "Data plane: backpressure attribution on a consumer bottleneck", dataplaneRow},
	{"prediction", "Prediction quality: fitted wait model vs the settled measurement", predictionRow},
}

// Names returns the subcommand list, "|"-separated, as usage text and
// docs spell it.
func Names() string {
	names := make([]string, len(Table))
	for i, e := range Table {
		names[i] = e.Name
	}
	return strings.Join(names, "|")
}

// Env is what a row runs in. The driver builds one per row, so no row
// sees another's series, events or spans.
type Env struct {
	// Paper selects the full 130-node topology and 60 s steps over the
	// quick laptop-scale variant.
	Paper bool
	// Guarantee and CheckpointInterval (virtual seconds) apply to the
	// faults row; the guarantees row sweeps all modes regardless.
	Guarantee          ckpt.Guarantee
	CheckpointInterval float64
	// Recorder, Telemetry and Tracer observe the row's run — for a row of
	// several runs, the one its artifacts export.
	Recorder  *obs.Recorder
	Telemetry *obs.Telemetry
	Tracer    *obs.Tracer
}

// NewEnv returns a quick-scale, at-most-once Env with fresh instruments.
func NewEnv() Env {
	return Env{Recorder: obs.NewRecorder(0), Telemetry: obs.NewTelemetry(0), Tracer: obs.NewTracer(64)}
}

// observe attaches env's instruments to cfg.
func (env Env) observe(cfg *sim.Config) {
	cfg.Recorder, cfg.Telemetry, cfg.Tracer = env.Recorder, env.Telemetry, env.Tracer
}

// Outcome is what a row hands back to the driver.
type Outcome struct {
	Checks CheckList
	// Lines are printed under the checks.
	Lines []string
	// Artifacts are the files the row contributes to the output directory.
	Artifacts []Artifact
}

// Artifact is one output file.
type Artifact struct {
	File  string
	Write func(io.Writer) error
	// Note, when set, follows the file name on the "wrote" line.
	Note string
}

// Save writes the artifact into dir and prints the "wrote" line every CLI
// shares, prefixed with indent.
func (a Artifact) Save(dir, indent string) error {
	path := filepath.Join(dir, a.File)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("experiments: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	note := a.Note
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%swrote %s%s\n", indent, path, note)
	return nil
}

// RowsCSV is the time series of one simulation as a CSV artifact, rates
// scaled back by scale.
func RowsCSV(file string, rows []sim.Row, scale int) Artifact {
	return Artifact{
		File:  file,
		Write: func(w io.Writer) error { return WriteRowsCSV(w, rows, float64(scale)) },
		Note:  fmt.Sprintf("%d rows", len(rows)),
	}
}

// printedCSV is an artifact whose body print writes line by line; the
// buffer keeps the first write error for Flush to return.
func printedCSV(file, note string, print func(w io.Writer)) Artifact {
	return Artifact{File: file, Note: note, Write: func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		print(bw)
		return bw.Flush()
	}}
}

// TimeseriesJSON is tel's full snapshot — the /timeseries shape.
func TimeseriesJSON(file string, tel *obs.Telemetry) Artifact {
	return Artifact{File: file, Write: tel.WriteJSON, Note: fmt.Sprintf("%d series", tel.Store().Len())}
}

// DecisionsJSONL is rec's buffered events as JSON Lines.
func DecisionsJSONL(file string, rec *obs.Recorder) Artifact {
	return Artifact{File: file, Write: rec.WriteJSONL, Note: fmt.Sprintf("%d decision events", len(rec.Decisions()))}
}

// pick returns the quick or the paper-scale value.
func pick[T any](paper bool, quick, full T) T {
	if paper {
		return full
	}
	return quick
}

// orDefault sets *v to def when it is unset (zero or negative).
func orDefault[T int | float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// runSim builds and runs one simulation, naming what on failure.
func runSim(what string, cfg sim.Config, probes *sim.ProbeSet) (*sim.Result, error) {
	s, err := sim.New(cfg, probes)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	out, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	return out, nil
}

// runPrimeTester scales opts down by scale, lets prepare adjust the built
// configuration, and runs it.
func runPrimeTester(what string, opts apps.PrimeTesterOptions, scale int, prepare func(*sim.Config, *sim.ProbeSet)) (*sim.Result, error) {
	cfg, probes, err := apps.BuildPrimeTester(apps.ScalePrimeTesterOptions(opts, scale))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	if prepare != nil {
		prepare(&cfg, probes)
	}
	return runSim(what, cfg, probes)
}

// runTweets is runPrimeTester for the TwitterSentiment job; a positive
// duration truncates the 6000 s trace.
func runTweets(what string, opts apps.TwitterSentimentOptions, scale int, duration float64, prepare func(*sim.Config, *sim.ProbeSet)) (*sim.Result, error) {
	cfg, probes, err := apps.BuildTwitterSentiment(apps.ScaleTwitterSentimentOptions(opts, scale))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	if duration > 0 {
		cfg.Duration = duration
	}
	if prepare != nil {
		prepare(&cfg, probes)
	}
	return runSim(what, cfg, probes)
}
