package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"llbp/internal/core"
	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/report"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
	"llbp/internal/trace/cache"
	"llbp/internal/workload"
)

// matrixExperiments is the benchmark's subset of the paper's figures:
// the capacity study, the headline results and the two sensitivity
// sweeps with their large directories.
const matrixExperiments = "fig2,fig9,fig10,fig13,fig14,fig15"

// headlineSpecs are the matrix's headline-budget predictors, the cells
// the output check samples.
func headlineSpecs() []experiments.PredictorSpec {
	return []experiments.PredictorSpec{
		experiments.Spec64K(), experiments.SpecInfTAGE(), experiments.SpecInfTSL(),
		experiments.SpecLLBPDefault(), experiments.SpecLLBP0Lat(), experiments.Spec512K(),
	}
}

// matrixRound is what one cold matrix leaves behind.
type matrixRound struct {
	h          *experiments.Harness
	reg        *telemetry.Registry
	tables     map[string][]*report.Table
	wall       float64
	figs       map[string]float64
	cache      cache.Stats
	gcPauseMS  float64
	cellsRun   uint64
	cellTimeMS float64
}

type matrixStage struct {
	sz     sizes
	wls    []*workload.Source
	exps   []experiments.Experiment
	rounds []*matrixRound // completed matrices
	seed   uint64

	cur  *matrixRound // the matrix in progress, nil between matrices
	curC *cache.Cache
	next int // index in exps of the matrix's next experiment
}

// newMatrix builds the matrix's inputs: one re-seeded workload shaped
// like each of the named catalog entries.
func newMatrix(sz sizes, seed uint64, shapes []string) (*matrixStage, error) {
	exps, err := experiments.ByID(matrixExperiments)
	if err != nil {
		return nil, err
	}
	m := &matrixStage{sz: sz, seed: seed, exps: exps}
	for i, name := range shapes {
		wl, err := reseeded(name, subSeed(seed, streamMatrix, uint64(i)))
		if err != nil {
			return nil, err
		}
		m.wls = append(m.wls, wl)
	}
	return m, nil
}

func (m *matrixStage) config(reg *telemetry.Registry, tc *cache.Cache) experiments.Config {
	return experiments.Config{
		Warmup: m.sz.matrixWarm, Measure: m.sz.matrixMeas,
		SweepWarmup: m.sz.sweepWarm, SweepMeasure: m.sz.sweepMeas,
		Workloads:   m.wls,
		Parallelism: runtime.NumCPU(),
		Telemetry:   reg,
		TraceCache:  tc,
	}
}

// atBoundary reports whether no matrix is in progress.
func (m *matrixStage) atBoundary() bool { return m.cur == nil }

// unit runs the next experiment of the matrix in progress, the way
// cmd/experiments runs them. A matrix starts with every cache cold: a
// fresh harness (memo and warm snapshots) and a fresh trace cache. Its
// wall time is the sum of its experiments' times, so the other stages'
// units interleaved between experiments do not count.
func (m *matrixStage) unit(sp *spans) (ops int, err error) {
	if m.cur == nil {
		reg := telemetry.NewRegistry()
		m.curC = cache.New(0)
		m.cur = &matrixRound{h: experiments.NewHarness(m.config(reg, m.curC)), reg: reg,
			tables: map[string][]*report.Table{}, figs: map[string]float64{}}
	}
	mr, e := m.cur, m.exps[m.next]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := sp.begin("experiments", e.ID)
	t0 := time.Now()
	tables, err := e.Run(mr.h)
	dt := time.Since(t0).Seconds()
	sp.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		m.cur, m.next = nil, 0 // abandon the matrix
		return 0, fmt.Errorf("matrix %s: %w", e.ID, err)
	}
	mr.figs[e.ID] = dt
	mr.wall += dt
	mr.gcPauseMS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	mr.tables[e.ID] = tables
	if m.next++; m.next < len(m.exps) {
		return 1, nil
	}
	mr.cache = m.curC.Stats()
	snap := mr.reg.Snapshot()
	mr.cellsRun = snap.Counters["harness_cells_run"]
	mr.cellTimeMS = snap.Histograms["harness_cell_elapsed_ms"].Sum
	if n := len(m.rounds); n > 0 {
		m.rounds[n-1].h, m.rounds[n-1].tables = nil, nil // only the last matrix is verified
	}
	m.rounds = append(m.rounds, mr)
	m.cur, m.curC, m.next = nil, nil, 0
	return 1, nil
}

// memoHits counts the cells one experiment asks for that an earlier
// experiment of the matrix already computed: the sum over experiments of
// the distinct cells each asks for alone, minus the distinct cells of the
// whole matrix. Both are counted on census harnesses whose cells return
// at once, so the count costs no simulation.
func (m *matrixStage) memoHits() (uint64, error) {
	exps := m.exps
	census := func(list []experiments.Experiment) (uint64, error) {
		var n atomic.Uint64
		cfg := m.config(nil, nil)
		cfg.Remote = func(ctx context.Context, cs experiments.CellSpec) (*experiments.RunOutput, error) {
			n.Add(1)
			return &experiments.RunOutput{Res: &sim.Result{Instructions: 1000, Branches: 100, CondBranches: 80, Mispredicts: 1, MPKI: 1, Cycles: 1000, IPC: 1}, LLBP: core.Stats{CondPredictions: 80, Matches: 1, Overrides: 1}}, nil
		}
		cfg.Parallelism = 1
		h := experiments.NewHarness(cfg)
		for _, e := range list {
			if _, err := e.Run(h); err != nil {
				return 0, fmt.Errorf("census %s: %w", e.ID, err)
			}
		}
		return n.Load(), nil
	}
	all, err := census(exps)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, e := range exps {
		n, err := census([]experiments.Experiment{e})
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum - all, nil
}

// verify checks the last matrix: a seeded sample of headline and sweep
// cells must equal a direct sim.Run with no trace cache and no fork-warm,
// count for count, and every Figure 14 capacity must equal contexts ×
// patterns × 18 bits.
func (m *matrixStage) verify() error {
	if len(m.rounds) == 0 {
		return fmt.Errorf("matrix: no completed matrix to verify")
	}
	mr := m.rounds[len(m.rounds)-1]
	specs := headlineSpecs()
	cellsBefore := mr.reg.Snapshot().Counters["harness_cells_run"]
	for k := 0; k < m.sz.matrixSample; k++ {
		r := subSeed(m.seed, streamMatrix, 1000+uint64(k))
		wl := m.wls[r%uint64(len(m.wls))]
		spec := specs[(r>>8)%uint64(len(specs))]
		warm, meas := m.sz.matrixWarm, m.sz.matrixMeas
		var out *experiments.RunOutput
		var err error
		if k%2 == 1 { // every other sample is a sweep-budget baseline cell
			spec = experiments.Spec64K()
			warm, meas = m.sz.sweepWarm, m.sz.sweepMeas
			out, err = mr.h.RunSweep(wl, spec)
		} else {
			out, err = mr.h.Run(wl, spec)
		}
		if err != nil {
			return err
		}
		clock := &predictor.Clock{}
		p, err := spec.Build(clock)
		if err != nil {
			return err
		}
		direct, err := sim.Run(wl, p, sim.Options{WarmupBranches: warm, MeasureBranches: meas, Clock: clock})
		if err != nil {
			return err
		}
		if *direct != *out.Res {
			return fmt.Errorf("matrix cell %s|%s: harness %+v, direct sim.Run %+v", wl.Name(), spec.Key, *out.Res, *direct)
		}
		if lp, ok := p.(*core.Predictor); ok && lp.Stats() != out.LLBP {
			return fmt.Errorf("matrix cell %s|%s: harness LLBP stats %+v, direct %+v", wl.Name(), spec.Key, out.LLBP, lp.Stats())
		}
	}
	if after := mr.reg.Snapshot().Counters["harness_cells_run"]; after != cellsBefore {
		return fmt.Errorf("matrix: %d sampled cells were not in the harness memo", after-cellsBefore)
	}
	return checkFig14(mr.tables["fig14"])
}

// checkFig14 checks every capacity annotation of the Figure 14 table:
// rows are context counts, columns "<n>-patterns", cells "<red> (<KiB>KiB)".
func checkFig14(tables []*report.Table) error {
	if len(tables) != 1 {
		return fmt.Errorf("fig14: %d tables, want 1", len(tables))
	}
	t := tables[0]
	checked := 0
	for _, row := range t.Rows {
		ctx, err := strconv.Atoi(row[0])
		if err != nil {
			return fmt.Errorf("fig14: row label %q: %v", row[0], err)
		}
		for c := 1; c < len(row) && c < len(t.Header); c++ {
			pats, err := strconv.Atoi(strings.TrimSuffix(t.Header[c], "-patterns"))
			if err != nil {
				return fmt.Errorf("fig14: column %q: %v", t.Header[c], err)
			}
			lo, hi := strings.LastIndex(row[c], "("), strings.LastIndex(row[c], "KiB)")
			if lo < 0 || hi < lo {
				return fmt.Errorf("fig14: cell %q has no capacity", row[c])
			}
			want := fmt.Sprintf("%.0f", float64(ctx*pats*18)/8/1024)
			if got := row[c][lo+1 : hi]; got != want {
				return fmt.Errorf("fig14: %d contexts × %d patterns reads %sKiB, want %sKiB", ctx, pats, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("fig14: no capacity cells")
	}
	return nil
}
