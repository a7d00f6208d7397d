package experiments

import (
	"fmt"
	"io"
	"os"

	"nephelix/internal/obs"
)

// WriteTimeseries dumps tel's full snapshot — the /timeseries shape — to
// path and prints the "wrote" line every CLI shares (CI greps it),
// prefixed with indent.
func WriteTimeseries(path string, tel *obs.Telemetry, indent string) error {
	if err := writeFile(path, tel.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("%swrote %s (%d series)\n", indent, path, tel.Store().Len())
	return nil
}

// WriteDecisions dumps rec's buffered events as JSON Lines to path and
// prints the shared "wrote" line, prefixed with indent.
func WriteDecisions(path string, rec *obs.Recorder, indent string) error {
	if err := writeFile(path, rec.WriteJSONL); err != nil {
		return err
	}
	fmt.Printf("%swrote %s (%d decision events)\n", indent, path, len(rec.Decisions()))
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
