package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSizes keep every unit small but run enough cycles for the
// percentile rule: 1200 session batches, 120 jobs.
var smokeSizes = sizes{
	setupReps:      2,
	minCycles:      12,
	tracedCycles:   3,
	replayStreams:  2,
	replayBranches: 60_000,
	matrixWarm:     2_000, matrixMeas: 4_000,
	sweepWarm: 1_000, sweepMeas: 2_000,
	matrixSample:   4,
	sessionWarmup:  5_000,
	batchBranches:  16,
	sessionBatches: 100,
	recordBatches:  50,
	jobsPerUnit:    10,
	jobWarm:        500, jobMeas: 1_000,
	microIters:  10_000,
	layerReps:   1,
	healthPings: 10,
	cellSample:  5,
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func smokeRun(t *testing.T, wl string, traced bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(options{workload: wl, seed: 7, seconds: 1, trace: traced, dir: dir, sz: smokeSizes, log: testLog{t}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if entries, _ := os.ReadDir(dir); traced != (len(entries) == 1) {
		t.Errorf("run left %d entries in its directory, want only the trace file when traced", len(entries))
	}
	return res
}

// TestSmoke runs every workload briefly, with its output checks, and
// checks the printed metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			checkDeclared(t, smokeRun(t, wl, false), man.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		checkDeclared(t, smokeRun(t, workloads[1], true), man.PerLayer)
	})
}

// checkDeclared: the result prints exactly the declared metrics, each
// with its declared unit.
func checkDeclared(t *testing.T, res *result, declared []manifestMetric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
		case unit != m.Unit:
			t.Errorf("metric %s printed in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("declared metric %s was not printed", name)
		}
	}
}
