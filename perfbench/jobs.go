package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"llbp/internal/core"
	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/service"
	"llbp/internal/sim"
	"llbp/internal/trace/cache"
	"llbp/internal/workload"
)

// jobPredictors alternate job by job.
var jobPredictors = []string{"64k", "llbp"}

type jobResult struct {
	cell  experiments.CellSpec
	value json.RawMessage
	latMS float64
}

// jobsStage is one closed-loop client of the daemon's job service: it
// submits a single-cell job, follows its result stream to "done", and
// only then submits the next. Every cell is distinct: job IDs and the
// harness memo are content-addressed, so a repeated cell would time the
// dedup path instead of a job.
type jobsStage struct {
	d     *daemon
	sz    sizes
	seed  uint64
	shape string // the catalog workload every cell runs
	used  map[string]bool
	next  uint64

	latMS, submitMS []float64
	results         []jobResult
}

func newJobs(d *daemon, sz sizes, seed uint64, shape string) *jobsStage {
	return &jobsStage{d: d, sz: sz, seed: seed, shape: shape, used: map[string]bool{}}
}

// cell picks the next distinct cell: the workload's catalog entry (llbpd
// accepts only catalog names), with the predictor alternating job by
// job, so every run has the same mix whatever the seed; the seed picks
// budgets from narrow ranges.
func (j *jobsStage) cell() experiments.CellSpec {
	for {
		k := j.next
		j.next++
		r := subSeed(j.seed, streamJobs, k)
		cs := experiments.CellSpec{
			Workload:  j.shape,
			Predictor: jobPredictors[k%uint64(len(jobPredictors))],
			Warmup:    j.sz.jobWarm + r%(j.sz.jobWarm/4+1),
			Measure:   j.sz.jobMeas + (r>>32)%(j.sz.jobMeas/4+1),
		}
		if !j.used[cs.Key()] {
			j.used[cs.Key()] = true
			return cs
		}
	}
}

// unit runs sz.jobsPerUnit jobs in closed loop and returns how many
// completed.
func (j *jobsStage) unit(sp *spans) (ok int, err error) {
	ctx := context.Background()
	rid := sp.begin("service", "jobs unit")
	defer sp.end(rid)
	for i := 0; i < j.sz.jobsPerUnit; i++ {
		cs := j.cell()
		id := sp.begin("service", "job")
		t0 := time.Now()
		st, err := j.d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Tenant: "perfbench", Cells: []experiments.CellSpec{cs}})
		j.submitMS = append(j.submitMS, float64(time.Since(t0))/1e6)
		if err != nil {
			sp.end(id)
			return ok, fmt.Errorf("submitting %s: %w", cs.Key(), err)
		}
		var res jobResult
		var done *service.StreamEvent
		err = j.d.cl.Stream(ctx, st.ID, true, func(ev service.StreamEvent) error {
			switch ev.Type {
			case "cell":
				if ev.Error != "" {
					return fmt.Errorf("cell %s failed: %s", ev.Key, ev.Error)
				}
				res = jobResult{cell: cs, value: ev.Value}
			case "done":
				done = &ev
			}
			return nil
		})
		lat := float64(time.Since(t0)) / 1e6
		sp.end(id)
		if err != nil {
			return ok, fmt.Errorf("job %s: %w", st.ID, err)
		}
		if done == nil || done.State != service.StateDone || res.value == nil {
			return ok, fmt.Errorf("job %s ended without a completed cell", st.ID)
		}
		res.latMS = lat
		j.latMS = append(j.latMS, lat)
		j.results = append(j.results, res)
		ok++
	}
	return ok, nil
}

// directCell simulates cs with a freshly built predictor straight from
// the catalog workload: no harness, trace cache, fork-warm or journal.
func directCell(cs experiments.CellSpec) (*experiments.RunOutput, error) {
	wl, err := workload.ByName(cs.Workload)
	if err != nil {
		return nil, err
	}
	spec, err := experiments.SpecByKey(cs.Predictor)
	if err != nil {
		return nil, err
	}
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(wl, p, sim.Options{WarmupBranches: cs.Warmup, MeasureBranches: cs.Measure, Clock: clock})
	if err != nil {
		return nil, err
	}
	out := &experiments.RunOutput{Res: res}
	if lp, ok := p.(*core.Predictor); ok {
		out.LLBP, out.HasLLBP = lp.Stats(), true
	}
	return out, nil
}

// verify checks every streamed result against a direct sim.Run of its
// cell.
func (j *jobsStage) verify() error {
	if len(j.results) == 0 {
		return fmt.Errorf("jobs: no completed job to verify")
	}
	for _, r := range j.results {
		var got experiments.RunOutput
		if err := json.Unmarshal(r.value, &got); err != nil {
			return fmt.Errorf("job cell %s: decoding result: %w", r.cell.Key(), err)
		}
		want, err := directCell(r.cell)
		if err != nil {
			return err
		}
		if got.Res == nil || *got.Res != *want.Res || got.LLBP != want.LLBP || got.HasLLBP != want.HasLLBP {
			return fmt.Errorf("job cell %s: streamed %+v, direct sim.Run %+v", r.cell.Key(), got.Res, *want.Res)
		}
	}
	return nil
}

// cellTimes runs up to n of the jobs' cells in process through a fresh
// harness's RunCell, returning each cell's time and its job's latency.
func (j *jobsStage) cellTimes(n int) (cellMS, latMS []float64, err error) {
	h := experiments.NewHarness(experiments.Config{
		Warmup: daemonWarmup, Measure: daemonMeasure, TraceCache: cache.New(0),
	})
	for i, r := range j.results {
		if i == n {
			break
		}
		t0 := time.Now()
		if _, err := h.RunCell(context.Background(), r.cell); err != nil {
			return nil, nil, err
		}
		cellMS = append(cellMS, float64(time.Since(t0))/1e6)
		latMS = append(latMS, r.latMS)
	}
	return cellMS, latMS, nil
}
