package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtcshare/internal/cli"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
	// -experiment list is the same registry listing, for people who
	// guess the spelling.
	if err := run([]string{"-experiment", "list"}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownExperimentListsIDs: the error for a bad id names the valid
// experiments instead of just pointing at -list.
func TestUnknownExperimentListsIDs(t *testing.T) {
	err := run([]string{"-experiment", "bogus"})
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	for _, id := range []string{"chaos", "stream", "planner", "fig10a"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list experiment %q", err, id)
		}
	}
}

func TestRunTinyExperiment(t *testing.T) {
	if err := run([]string{
		"-experiment", "table4", "-scale", "6", "-maxn", "1", "-sets", "1",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigTiny(t *testing.T) {
	if err := run([]string{
		"-experiment", "fig13a", "-scale", "6", "-maxn", "1", "-sets", "1",
		"-rpqs", "1", "-seed", "5", "-verify",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlannerJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{
		"-experiment", "planner", "-scale", "6", "-maxn", "1", "-sets", "1", "-rpqs", "2",
		"-json", path,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("wrote invalid JSON: %v", err)
	}
	if report.Experiment != "planner" {
		t.Errorf("experiment = %q, want planner", report.Experiment)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                       // no experiment
		{"-experiment", "bogus"}, // unknown id
		{"-experiment", "fig10a", "-scale", "99"},    // bad config
		{"-experiment", "all", "-json", "x.json"},    // -json needs one experiment
		{"-experiment", "table4", "-json", "x.json"}, // no structured report
		{"-experiment", "planner", "-scale", "6", "-maxn", "1", "-sets", "1",
			"-json", "/nonexistent-dir/x.json"}, // unwritable path
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): want error", i, args)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	if err := run([]string{"-h"}); cli.ExitCode(err) != 0 {
		t.Fatalf("-h must map to exit 0, got err %v", err)
	}
	if err := run([]string{"-no-such-flag"}); cli.ExitCode(err) != 1 {
		t.Fatalf("bad flag must map to exit 1, got err %v", err)
	}
}
