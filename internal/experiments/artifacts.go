package experiments

import (
	"fmt"

	"nephelix/internal/obs"
	"nephelix/internal/sim"
)

// JobOutputs is where a single-job CLI (cmd/primetester,
// cmd/twittersentiment) sends what its run produced; empty fields are
// skipped.
type JobOutputs struct {
	// ObsAddr serves the introspection endpoints while the job runs.
	ObsAddr string
	// CSV, Decisions and Timeseries are output paths for the time series,
	// the scaler's audit trail and the telemetry store.
	CSV, Decisions, Timeseries string
}

// RunJob runs one simulated job, built at 1/scale, under fresh
// instruments: it serves them, prints banner, runs, hands the result to
// report, writes the requested outputs and lists the cells the residual
// monitor flags as drifting.
func RunJob(cfg sim.Config, probes *sim.ProbeSet, scale int, o JobOutputs, banner string, report func(*sim.Result)) error {
	rec, tel := obs.NewRecorder(0), obs.NewTelemetry(0)
	cfg.Recorder, cfg.Telemetry = rec, tel
	if o.ObsAddr != "" {
		srv, err := obs.Serve(o.ObsAddr, obs.ServerConfig{Recorder: rec, Telemetry: tel})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection on http://%s\n", o.ObsAddr)
	}
	s, err := sim.New(cfg, probes)
	if err != nil {
		return err
	}
	fmt.Println(banner)
	res, err := s.Run()
	if err != nil {
		return err
	}
	report(res)

	var artifacts []Artifact
	if o.CSV != "" {
		artifacts = append(artifacts, RowsCSV(o.CSV, res.Rows, scale))
	}
	if o.Decisions != "" {
		artifacts = append(artifacts, DecisionsJSONL(o.Decisions, rec))
	}
	if o.Timeseries != "" {
		artifacts = append(artifacts, TimeseriesJSON(o.Timeseries, tel))
	}
	for _, a := range artifacts {
		if err := a.Save("", ""); err != nil {
			return err
		}
	}
	if drift := tel.Residuals().DriftFlags(); len(drift) > 0 {
		fmt.Printf("model drift detected in %d constraint/vertex cells:\n", len(drift))
		for _, d := range drift {
			fmt.Printf("  %s/%s: %s (mean |rel err| %.2f, sign bias %+.2f over %d samples)\n",
				d.Constraint, d.Vertex, d.Reason, d.MeanAbsRelErr, d.SignBias, d.Samples)
		}
	}
	return nil
}
