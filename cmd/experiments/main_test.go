package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"nephelix/internal/experiments"
)

func rowsNamed(t *testing.T, names ...string) []experiments.Experiment {
	t.Helper()
	var rows []experiments.Experiment
	for _, name := range names {
		row, err := selectRows(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row...)
	}
	return rows
}

// deterministic reads an artifact as what must not depend on the process
// it was written in: the bytes, or for a telemetry snapshot everything
// but the wall-clock runtime series.
func deterministic(t *testing.T, path string) any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "_timeseries.json") {
		return raw
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var series []any
	for _, s := range snap["series"].([]any) {
		if !strings.HasPrefix(s.(map[string]any)["name"].(string), "nephelix_go_") {
			series = append(series, s)
		}
	}
	snap["series"] = series
	return snap
}

// TestTableRowsAreIsolated: rows run one after another in one process
// write what each writes alone — no row sees an earlier row's series,
// SLO targets or events.
func TestTableRowsAreIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments; skipped in -short mode")
	}
	noServe := func(experiments.Env) {}
	together := t.TempDir()
	rows := rowsNamed(t, "faults", "guarantees", "tails")
	if err := run(rows, together, experiments.Env{}, noServe); err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, row := range rows {
		alone := t.TempDir()
		if err := run([]experiments.Experiment{row}, alone, experiments.Env{}, noServe); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(alone)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			compared++
			if !reflect.DeepEqual(deterministic(t, filepath.Join(alone, f.Name())), deterministic(t, filepath.Join(together, f.Name()))) {
				t.Errorf("%s: %s differs between the row run alone and after other rows", row.Name, f.Name())
			}
		}
	}
	if all, _ := os.ReadDir(together); compared != len(all) || compared == 0 {
		t.Errorf("compared %d artifacts, the joint run wrote %d", compared, len(all))
	}
	slo := deterministic(t, filepath.Join(together, "tails_timeseries.json")).(map[string]any)["slo"].([]any)
	if len(slo) != 2 {
		t.Errorf("tails tracks %d SLO targets after faults and guarantees, want its own 2", len(slo))
	}
}

// TestTableNames: the table is the one list of subcommands; the usage
// and error text derive from it and the docs spell the same list.
func TestTableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range experiments.Table {
		if seen[row.Name] || row.Name == "all" || row.Title == "" || row.Run == nil {
			t.Errorf("row %q: duplicate, reserved or incomplete", row.Name)
		}
		seen[row.Name] = true
	}
	want := experiments.Names() + "|all"
	if !strings.Contains(usage(), want) {
		t.Errorf("usage %q lacks %q", usage(), want)
	}
	if _, err := selectRows("nope"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown row error %v lacks %q", err, want)
	}
	list := regexp.MustCompile(`\bfig3\|[a-z0-9|]+`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		lists := list.FindAll(raw, -1)
		if len(lists) == 0 {
			t.Errorf("%s does not list the subcommands", doc)
		}
		for _, got := range lists {
			if !bytes.Equal(got, []byte(want)) {
				t.Errorf("%s lists %q, the table is %q", doc, got, want)
			}
		}
	}
}
