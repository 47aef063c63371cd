package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestManifest checks BENCHMARK.json's fixed form: the workloads are the
// benchmark's, every metric has a unique well-formed name, a unit and a
// direction, and every end-to-end metric a bound.
func TestManifest(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark runs %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q with a why of at most 200 chars", i, w.Name, len(w.Why), workloads[i])
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	check := func(m manifestMetric, e2e bool) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q malformed", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		switch {
		case e2e && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		case !e2e && m.Bound != nil:
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if e2e && m.Name == "setup_s" {
			hasSetup = true
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	for _, m := range man.EndToEnd {
		check(m, true)
		// hostScale tells times from rates by name and scales all
		// but peak memory, so the units must agree with the names.
		rate := strings.HasSuffix(m.Name, "_per_s")
		if rate != strings.HasSuffix(m.Unit, "/s") || (!rate && m.Name != "peak_rss_mb" && m.Unit != "s" && m.Unit != "ms") {
			t.Errorf("metric %s in %s: hostScale cannot tell whether it is a time, a rate or peak memory", m.Name, m.Unit)
		}
	}
	for _, m := range man.PerLayer {
		check(m, false)
	}
	if !hasSetup {
		t.Errorf("no setup_s end-to-end metric")
	}
	if len(man.Paths) != 1 || man.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", man.Paths)
	}
}
