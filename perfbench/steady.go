package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads itself.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// steadyRuns is the number of runs in each set.
const steadyRuns = 10

// steadyMain runs two sets of steadyRuns runs of one workload, each run
// as long as run_seconds in BENCHMARK.json and with its own seed,
// counting up from 1 (each run's output is kept under
// .bench_build/steady-<workload>/). It
// reports every end-to-end metric's median, quartiles and spread
// (quartile distance over median) against its bound, plus the drift of
// the second set's median from the first's. It is the evidence for the
// bounds in BENCHMARK.json.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	if !known(*wl) {
		fmt.Fprintf(stderr, "perfbench steady: need --workload (one of %v)\n", workloads)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	outDir := filepath.Join(".bench_build", "steady-"+*wl)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	sets := make([]map[string][]float64, 2)
	var att, fail [2]int
	seed := uint64(1)
	for s := range sets {
		sets[s] = map[string][]float64{}
		for i := 0; i < steadyRuns; i++ {
			res, err := runOnce(self, *wl, seed, man.RunSeconds, outDir)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench steady: set %d seed %d: %v\n", s+1, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "perfbench steady: set %d seed %d: output checks failed\n", s+1, seed)
				return 1
			}
			att[s] += res.Attempted
			fail[s] += res.Failed
			for name, m := range res.Metrics {
				sets[s][name] = append(sets[s][name], m.Value)
			}
			fmt.Fprintf(stderr, "set %d run %d seed %d done (output in %s)\n", s+1, i+1, seed, outDir)
			seed++
		}
	}
	fmt.Fprintf(stdout, "workload %s, %d runs per set, %d s per run; failed/attempted: set 1 %d/%d, set 2 %d/%d\n",
		*wl, steadyRuns, man.RunSeconds, fail[0], att[0], fail[1], att[1])
	fmt.Fprintf(stdout, "%-24s %5s %12s %12s %12s %8s %12s %8s %7s %s\n",
		"metric", "set", "median", "q1", "q3", "spread", "2nd median", "drift", "bound", "verdict")
	ok := true
	for _, mm := range man.EndToEnd {
		bound := 0.0
		if mm.Bound != nil {
			bound = *mm.Bound
		}
		m1, m2 := median(sets[0][mm.Name]), median(sets[1][mm.Name])
		drift := (m2 - m1) / m1
		if mm.Better == "higher" {
			drift = -drift
		}
		for s, xs := range sets {
			q1, q3 := quartiles(xs[mm.Name])
			med := median(xs[mm.Name])
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > bound:
				verdict, ok = "SPREAD OVER BOUND", false
			case spread > bound/3:
				verdict = "spread over a third of the bound"
			}
			if s == 1 && drift > bound {
				verdict, ok = "SECOND MEDIAN WORSE BY MORE THAN THE BOUND", false
			}
			fmt.Fprintf(stdout, "%-24s %5d %12.4f %12.4f %12.4f %8.4f %12.4f %+8.4f %7.3f %s\n",
				mm.Name, s+1, med, q1, q3, spread, m2, drift, bound, verdict)
		}
	}
	if fail[0]*att[1] != fail[1]*att[0] {
		fmt.Fprintf(stdout, "failed share differs between the sets\n")
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs the benchmark binary once, keeps its output in outDir and
// decodes its last line.
func runOnce(self, wl string, seed uint64, seconds int, outDir string) (*result, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if werr := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("seed-%d.txt", seed)), out, 0o644); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	var lastLine string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lastLine = l
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine), &res); err != nil {
		return nil, fmt.Errorf("decoding result line %q: %w", lastLine, err)
	}
	return &res, nil
}
