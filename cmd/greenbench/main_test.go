package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greenenvy"
)

func fastOpts() greenenvy.Options {
	return greenenvy.Options{Reps: 1, Scale: 0.004, Seed: 1}
}

func TestRunUnknownFigure(t *testing.T) {
	err := run("42", fastOpts(), "")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), "-fig list") {
		t.Fatalf("error %q should point at -fig list", err)
	}
}

// TestPrintListNamesEveryExperiment: `-fig list` has a line beginning
// with each registered experiment's name followed by a space.
// TestRegistryMetadata pins that list of names.
func TestPrintListNamesEveryExperiment(t *testing.T) {
	var buf strings.Builder
	printList(&buf)
	lines := strings.Split(buf.String(), "\n")
	for _, name := range greenenvy.ExperimentNames() {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-fig list has no line for %s:\n%s", name, buf.String())
		}
	}
}

func TestRunAnalyticReports(t *testing.T) {
	for _, fig := range []string{"theorem", "scheduler", "frontier", "ablations"} {
		if err := run(fig, fastOpts(), ""); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
	}
}

// reportTable runs a registry experiment and returns its table, so the
// content checks below cover exactly what `greenbench -fig <name>` prints.
func reportTable(t *testing.T, fig string) string {
	t.Helper()
	e, ok := greenenvy.LookupExperiment(fig)
	if !ok {
		t.Fatalf("%s not registered", fig)
	}
	res, err := e.Run(fastOpts())
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	return res.Table()
}

func TestTheoremReportContent(t *testing.T) {
	s := reportTable(t, "theorem")
	if !strings.Contains(s, "holds=true") || strings.Contains(s, "holds=false") {
		t.Fatalf("theorem report:\n%s", s)
	}
}

func TestFrontierReportContent(t *testing.T) {
	if s := reportTable(t, "frontier"); !strings.Contains(s, "concave=true") {
		t.Fatalf("frontier report:\n%s", s)
	}
}

func TestSchedulerReportContent(t *testing.T) {
	if s := reportTable(t, "scheduler"); !strings.Contains(s, "saving 16.3%") {
		t.Fatalf("scheduler report:\n%s", s)
	}
}

func TestRunFigureWithSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	dir := t.TempDir()
	if err := run("3", greenenvy.Options{Reps: 1, Scale: 0.02, Seed: 1}, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("fig3.svg is not an SVG")
	}
}

// TestRunWarmCacheReplaysFromDisk drives the same end-to-end path the CI
// cache-smoke job exercises: a figure run twice against one cache directory
// must replay every entry on the second pass.
func TestRunWarmCacheReplaysFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	dir := t.TempDir()
	o := fastOpts()
	o.CacheDir = dir
	if err := run("3", o, ""); err != nil {
		t.Fatal(err)
	}
	cold := greenenvy.CacheStatsFor(dir)
	if cold.Misses == 0 || cold.Hits != 0 || cold.Puts != cold.Misses {
		t.Fatalf("cold run stats %+v, want only misses+puts", cold)
	}
	if err := run("3", o, ""); err != nil {
		t.Fatal(err)
	}
	warm := greenenvy.CacheStatsFor(dir)
	if warm.Hits != cold.Misses || warm.Misses != cold.Misses {
		t.Fatalf("second run not fully warm: cold %+v, warm %+v", cold, warm)
	}
}
