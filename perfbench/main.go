// Command perfbench is the repository's benchmark of record. One run
// takes a workload and a seed, runs the measurement cycles --seconds
// asks for, checks the program's outputs, and prints every metric by
// name with its unit; the last line of standard output is the
// machine-readable result.
//
//	perfbench --workload tomcat|kafka --seed N --seconds S --trace 0|1
//	perfbench steady --workload W
//
// See README.md for what each workload and metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// stageNames are the benchmark's stages, in the order a cycle runs them.
var stageNames = []string{"replay", "matrix", "session", "jobs"}

// workloads are the benchmark's two input mixes. Every cycle of either
// runs one unit of every stage; what differs is the shape of every input
// the stages generate (see shapes).
var workloads = []string{"tomcat", "kafka"}

// shape is the catalog workloads a benchmark workload's inputs are
// shaped like.
type shape struct {
	main   string   // replay streams, the session's stream and warm snapshot, the job cells
	matrix []string // the matrix's re-seeded workloads
}

// shapes split the matrix's four catalog shapes two per workload, each
// workload's own shape and one more: Tomcat (the largest branch working
// set) with NodeApp (the highest context share), and Kafka (the lowest
// context share, little for LLBP to do) with Merced (the second-largest
// LLBP gain), so each matrix still has a context-heavy input.
var shapes = map[string]shape{
	"tomcat": {main: "Tomcat", matrix: []string{"NodeApp", "Tomcat"}},
	"kafka":  {main: "Kafka", matrix: []string{"Kafka", "Merced"}},
}

// cycleSeconds is a cycle's length at fullSizes on the reference host,
// for either workload (README.md); it converts --seconds into a fixed
// number of cycles.
const cycleSeconds = 1.3

// sizes fixes the work in one unit of every stage and the shortest run.
type sizes struct {
	setupReps    int // set-ups per run; setup_s is their median
	minCycles    int // cycles per run at least: 1000 session batches, 100 jobs
	tracedCycles int // cycles in each phase of the traced run

	replayStreams  int
	replayBranches uint64 // per stream

	matrixWarm, matrixMeas uint64
	sweepWarm, sweepMeas   uint64
	matrixSample           int

	sessionWarmup  uint64
	batchBranches  int
	sessionBatches int // per unit
	recordBatches  int // pushed frames kept for the session layer measurements

	jobsPerUnit      int
	jobWarm, jobMeas uint64

	microIters  int // iterations of each core microbenchmark
	layerReps   int // repetitions of each layer measurement; the median is reported
	healthPings int
	cellSample  int // job cells re-run in process for service.cell_ms
}

// fullSizes are the sizes of the benchmark of record.
var fullSizes = sizes{
	setupReps:      9,
	minCycles:      12,
	tracedCycles:   6,
	replayStreams:  8,
	replayBranches: 100_000,
	matrixWarm:     10_000, matrixMeas: 20_000,
	sweepWarm: 5_000, sweepMeas: 10_000,
	matrixSample:   6,
	sessionWarmup:  200_000,
	batchBranches:  512,
	sessionBatches: 100,
	recordBatches:  200,
	jobsPerUnit:    10,
	jobWarm:        4_000, jobMeas: 8_000,
	microIters:  1_000_000,
	layerReps:   3,
	healthPings: 200,
	cellSample:  40,
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // scratch and trace-file directory
	sz       sizes
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: tomcat or kafka")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 36, "length of the measurement, converted to a fixed number of cycles")
		tr      = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if !known(*wl) || *seconds < 1 || (*tr != 0 && *tr != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *tr == 1,
		dir: ".bench_build", sz: fullSizes, log: os.Stdout}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func known(wl string) bool {
	for _, w := range workloads {
		if w == wl {
			return true
		}
	}
	return false
}

// stages is everything set-up builds: every stage, whatever the
// workload, because every run reports every end-to-end metric.
type stages struct {
	replay *replayStage
	matrix *matrixStage
	d      *daemon
	sess   *sessionStage
	jobs   *jobsStage
}

func setup(opt options, dir string) (*stages, error) {
	st := &stages{}
	sh := shapes[opt.workload]
	var err error
	if st.replay, err = newReplay(opt.sz, opt.seed, sh.main); err != nil {
		return nil, err
	}
	if st.matrix, err = newMatrix(opt.sz, opt.seed, sh.matrix); err != nil {
		st.close()
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		st.close()
		return nil, err
	}
	if st.d, err = startDaemon(dir, runtime.NumCPU()); err != nil {
		st.close()
		return nil, err
	}
	if st.sess, err = openSession(st.d, opt.sz, opt.seed, sh.main); err != nil {
		st.close()
		return nil, err
	}
	st.jobs = newJobs(st.d, opt.sz, opt.seed, sh.main)
	return st, nil
}

// close tears down what setup built, waiting for every goroutine.
func (st *stages) close() error {
	var errs []error
	if st.sess != nil {
		errs = append(errs, st.sess.close())
	}
	if st.d != nil {
		errs = append(errs, st.d.close())
	}
	if st.replay != nil {
		st.replay.close()
	}
	return errors.Join(errs...)
}

// planned is the number of operations one unit of the named stage
// attempts: two replays, one experiment, its session batches, its jobs.
func (st *stages) planned(name string) int {
	switch name {
	case "replay":
		return 2
	case "matrix":
		return 1
	case "session":
		return st.sess.sz.sessionBatches
	default:
		return st.jobs.sz.jobsPerUnit
	}
}

// unit runs one unit of the named stage and returns how many of its
// operations completed. An operation's error ends the unit.
func (st *stages) unit(name string, sp *spans) (int, error) {
	switch name {
	case "replay":
		return st.replay.unit(sp)
	case "matrix":
		return st.matrix.unit(sp)
	case "session":
		return st.sess.unit(sp)
	default:
		return st.jobs.unit(sp)
	}
}

// run is one benchmark run: set-up (repeated; the median is setup_s),
// the measured cycles, the output checks, then the metrics.
func run(opt options) (*result, error) {
	work, err := filepath.Abs(filepath.Join(opt.dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	calib, err := newCalibration()
	if err != nil {
		return nil, err
	}
	var setupS, openMS, setupSpeeds []float64
	var st *stages
	for i := 0; i < opt.sz.setupReps; i++ {
		// The host's speed around the set-ups, measured before each
		// one, with the previous one torn down and its heap collected.
		runtime.GC()
		setupSpeeds = append(setupSpeeds, calib.measure())
		t0 := time.Now()
		s, err := setup(opt, filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		openMS = append(openMS, float64(s.sess.open)/1e6)
		if i < opt.sz.setupReps-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up: %w", err)
			}
		} else {
			st = s
		}
	}
	b := &bench{opt: opt, work: work, st: st, setupS: setupS, openMS: openMS, setupSpeeds: setupSpeeds,
		correct: true, calib: calib}
	if opt.trace {
		err = b.traced()
	} else {
		b.measure()
	}
	if err == nil {
		b.verify()
	}
	if cerr := st.close(); cerr != nil && err == nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return b.layerResult()
	}
	return b.endToEndResult()
}

// bench carries one run's state from measurement to the result.
type bench struct {
	opt            options
	work           string
	calib          *calibration
	st             *stages
	setupS, openMS []float64
	setupSpeeds    []float64 // reference-kernel speeds measured before each set-up
	unitSpeeds     []float64 // reference-kernel speeds measured before each unit
	attempted      int
	failed         int
	correct        bool
	layers         map[string]metric
	tracedOverhead float64
}

// do lets the daemon go idle and collects the heap, outside any timed
// call, so neither the daemon's background work nor the garbage one unit
// leaves lands in the reference kernel or in the next unit. It then
// measures the host's speed and runs one unit. Every operation the unit
// planned counts as attempted; the ones an error kept from completing
// count as failed. The run goes on.
func (b *bench) do(name string, sp *spans) {
	b.st.d.idle()
	runtime.GC()
	b.unitSpeeds = append(b.unitSpeeds, b.calib.measure())
	planned := b.st.planned(name)
	ok, err := b.st.unit(name, sp)
	b.attempted += planned
	b.failed += planned - ok
	if err != nil {
		fmt.Fprintf(b.opt.log, "FAILED %s: %v\n", name, err)
	}
}

// cycle runs one measurement cycle: a unit of every stage.
func (b *bench) cycle(sp *spans) {
	for _, st := range stageNames {
		b.do(st, sp)
	}
}

// cycles runs n measurement cycles, and more until no matrix is left
// half done. The stages interleave, so each metric's samples spread
// over the whole run and a spell of contention on the host moves a
// median less than it would move one long sample.
func (b *bench) cycles(sp *spans, n int) float64 {
	start := time.Now()
	for i := 0; i < n || !b.st.matrix.atBoundary(); i++ {
		b.cycle(sp)
	}
	return time.Since(start).Seconds()
}

// measure runs the cycles --seconds asks for: a fixed amount of work
// (cycleSeconds is a cycle's length on the reference host), so every run
// of a workload attempts the same operations, and a session grows to the
// same length, however fast the host is at the time.
func (b *bench) measure() {
	n := int(math.Ceil(float64(b.opt.seconds) / cycleSeconds))
	if n < b.opt.sz.minCycles {
		n = b.opt.sz.minCycles
	}
	b.cycles(nil, n)
}

// verify runs every stage's output checks.
func (b *bench) verify() {
	checks := []struct {
		name string
		fn   func() error
	}{
		{"replay", b.st.replay.verify},
		{"matrix", b.st.matrix.verify},
		{"session", b.st.sess.verify},
		{"jobs", b.st.jobs.verify},
	}
	for _, c := range checks {
		if err := c.fn(); err != nil {
			b.correct = false
			fmt.Fprintf(b.opt.log, "CHECK FAILED %s: %v\n", c.name, err)
		} else {
			fmt.Fprintf(b.opt.log, "check ok %s\n", c.name)
		}
	}
}

// peakRSSMB is the process's peak resident set from getrusage.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// endToEndResult computes the end-to-end metrics from the samples and
// scales each time and rate to the reference host (see hostScale): the
// set-up time by the host's speed around the set-ups, the rest by its
// speed over the measurement cycles. The values as measured are printed
// beside them.
func (b *bench) endToEndResult() (*result, error) {
	st := b.st
	m := map[string]metric{}
	raw := map[string]metric{}
	host, setupHost := median(b.unitSpeeds), median(b.setupSpeeds)
	var errs []error
	put := func(name, unit string, v float64, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			return
		}
		h := host
		if name == "setup_s" {
			h = setupHost
		}
		raw[name] = metric{Value: v, Unit: unit}
		m[name] = metric{Value: v * hostScale(name, h), Unit: unit}
	}
	med := func(xs []float64) (float64, error) {
		if len(xs) == 0 {
			return 0, fmt.Errorf("no samples")
		}
		return median(xs), nil
	}
	put("setup_s", "s", median(b.setupS), nil)
	rss, err := peakRSSMB()
	put("peak_rss_mb", "MB", rss, err)
	v, err := med(st.replay.llbpChunks)
	put("llbp_branches_per_s", "branches/s", v, err)
	v, err = med(st.replay.tslChunks)
	put("tsl_branches_per_s", "branches/s", v, err)
	var walls []float64
	for _, r := range st.matrix.rounds {
		walls = append(walls, r.wall)
	}
	v, err = med(walls)
	put("matrix_wall_s", "s", v, err)
	v, err = percentile(st.sess.latMS, 50)
	put("push_verdict_p50_ms", "ms", v, err)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	fmt.Fprintf(b.opt.log, "host speed: reference kernel %.0f branches/s over the cycles (median of %d), %.0f around the set-ups (median of %d); the reference host's is %.0f\n",
		host, len(b.unitSpeeds), setupHost, len(b.setupSpeeds), float64(refNominal))
	fmt.Fprintf(b.opt.log, "set-ups:")
	for i, t := range b.setupS {
		fmt.Fprintf(b.opt.log, " %.4f s (kernel %.0f)", t, b.setupSpeeds[i])
	}
	fmt.Fprintln(b.opt.log)
	fmt.Fprintf(b.opt.log, "samples: %d replays per family, %d matrices, %d session batches, %d jobs, %d set-ups\n",
		st.replay.next, len(st.matrix.rounds), len(st.sess.latMS), len(st.jobs.latMS), len(b.setupS))
	fmt.Fprintf(b.opt.log, "%-26s %16s %16s\n", "metric", "at reference", "as measured")
	for _, name := range sortedNames(m) {
		fmt.Fprintf(b.opt.log, "%-26s %16.4f %16.4f %s\n", name, m[name].Value, raw[name].Value, m[name].Unit)
	}
	return &result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}
