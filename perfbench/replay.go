package main

import (
	"fmt"
	"runtime"
	"time"

	"llbp/internal/core"
	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/tsl"
	"llbp/internal/workload"
)

// replayStage replays seeded streams shaped like the workload's catalog
// entry, served from the materialized trace cache, through the 64K
// TAGE-SC-L and the LLBP composite, one after the other on one thread.
// There are several streams, each from its own program (sub-seed),
// replayed in turn, so one seed's program shape moves the rates less.
type replayStage struct {
	sz      sizes
	streams []*replayStream
	next    int

	llbpChunks, tslChunks []float64 // rates over each chunk of every replay
	allocPerBranch        float64
}

// replayStream is one materialized stream and the results every replay
// of it must reproduce.
type replayStream struct {
	src       *workload.Source
	hd        *cache.Handle
	llbpRes   *sim.Result
	tslRes    *sim.Result
	llbpStats core.Stats
}

func newReplay(sz sizes, seed uint64, shape string) (*replayStage, error) {
	r := &replayStage{sz: sz}
	c := cache.New(0)
	for i := 0; i < sz.replayStreams; i++ {
		src, err := reseeded(shape, subSeed(seed, streamReplay, uint64(i)))
		if err != nil {
			r.close()
			return nil, err
		}
		hd, err := c.Acquire(src, sz.replayBranches)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("materializing replay stream %d: %w", i, err)
		}
		r.streams = append(r.streams, &replayStream{src: src, hd: hd})
		if hd == nil || uint64(hd.Len()) != sz.replayBranches {
			r.close()
			return nil, fmt.Errorf("replay stream %d not materialized to %d branches", i, sz.replayBranches)
		}
	}
	return r, nil
}

func (r *replayStage) close() {
	for _, s := range r.streams {
		if s.hd != nil {
			s.hd.Release()
		}
	}
}

// chunkBranches is the replay's sampling interval: the replay rate is
// also taken over every chunk of this many branches, through sim.Run's
// periodic hook.
const chunkBranches = 32768

// replayOnce builds spec fresh and times sim.Run of it over the stream.
// When chunks is non-nil it receives the rate over each whole chunk.
func (r *replayStage) replayOnce(s *replayStream, spec experiments.PredictorSpec, opt sim.Options, chunks *[]float64) (*sim.Result, predictor.Predictor, time.Duration, error) {
	res, p, dt, _, err := r.replayAlloc(s, spec, opt, chunks)
	return res, p, dt, err
}

// replayAlloc is replayOnce that also returns the bytes sim.Run
// allocated (the predictor's construction excluded).
func (r *replayStage) replayAlloc(s *replayStream, spec experiments.PredictorSpec, opt sim.Options, chunks *[]float64) (*sim.Result, predictor.Predictor, time.Duration, uint64, error) {
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	opt.MeasureBranches = r.sz.replayBranches
	opt.Clock = clock
	var last time.Time // start of the current chunk
	if chunks != nil {
		opt.HookEvery = chunkBranches
		opt.Hook = func(uint64) {
			now := time.Now()
			*chunks = append(*chunks, chunkBranches/now.Sub(last).Seconds())
			last = now
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	last = t0
	res, err := sim.Run(s.hd, p, opt)
	dt := time.Since(t0)
	runtime.ReadMemStats(&after)
	return res, p, dt, after.TotalAlloc - before.TotalAlloc, err
}

// unit replays the next stream through LLBP, then through the 64K TSL,
// each freshly built, and returns how many of the two replays completed.
// Every replay of a stream must reproduce its first replay's results
// exactly.
func (r *replayStage) unit(sp *spans) (ok int, err error) {
	s := r.streams[r.next%len(r.streams)]
	r.next++
	for _, fam := range []string{"llbp", "tsl"} {
		spec, chunks := experiments.Spec64K(), &r.tslChunks
		if fam == "llbp" {
			spec, chunks = experiments.SpecLLBPDefault(), &r.llbpChunks
		}
		id := sp.begin("sim", "sim.Run "+spec.Key)
		res, p, _, alloc, err := r.replayAlloc(s, spec, sim.Options{}, chunks)
		sp.end(id)
		if err != nil {
			return ok, fmt.Errorf("replaying %s: %w", spec.Key, err)
		}
		if fam == "llbp" {
			r.allocPerBranch = float64(alloc) / float64(res.Branches)
			st := p.(*core.Predictor).Stats()
			if s.llbpRes == nil {
				s.llbpRes, s.llbpStats = res, st
			} else if *res != *s.llbpRes || st != s.llbpStats {
				return ok, fmt.Errorf("llbp replay of %s is not deterministic: %+v vs %+v", s.src.Name(), *res, *s.llbpRes)
			}
		} else if s.tslRes == nil {
			s.tslRes = res
		} else if *res != *s.tslRes {
			return ok, fmt.Errorf("tsl replay of %s is not deterministic: %+v vs %+v", s.src.Name(), *res, *s.tslRes)
		}
		ok++
	}
	return ok, nil
}

// drive runs p alone over the stream through Predict/UpdateWithTarget
// and TrackOther, and returns its mispredictions, conditional-branch
// count and elapsed time.
func drive(s *replayStream, p predictor.Predictor, clock *predictor.Clock) (misp, cond uint64, dt time.Duration, err error) {
	rd := s.hd.OpenBatch()
	drv := newStepper(p, clock)
	batch := make([]trace.Branch, 4096)
	t0 := time.Now()
	for {
		n, rerr := rd.ReadBatch(batch)
		for i := 0; i < n; i++ {
			if o, c := drv.step(&batch[i]); c {
				cond++
				misp += uint64(o >> 1 & 1)
			}
		}
		if rerr != nil {
			if trace.IsEOF(rerr) {
				return misp, cond, time.Since(t0), nil
			}
			return misp, cond, time.Since(t0), rerr
		}
	}
}

// streamCounts counts the stream's branches, conditional branches and
// instructions by reading it back.
func streamCounts(s *replayStream) (branches, cond, instrs uint64, err error) {
	rd := s.hd.OpenBatch()
	batch := make([]trace.Branch, 4096)
	for {
		n, rerr := rd.ReadBatch(batch)
		for _, b := range batch[:n] {
			branches++
			instrs += uint64(b.Instructions)
			if b.Type.IsConditional() {
				cond++
			}
		}
		if rerr != nil {
			if trace.IsEOF(rerr) {
				return branches, cond, instrs, nil
			}
			return branches, cond, instrs, rerr
		}
	}
}

// verify checks every stream's replay results against computations
// made apart from sim.Run: the stream's own counts, an independent
// Predict/Update loop for the TSL, and, for LLBP, that wherever it did
// not override the baseline its prediction is the baseline's.
func (r *replayStage) verify() error {
	for _, s := range r.streams {
		if err := r.verifyStream(s); err != nil {
			return fmt.Errorf("replay of %s: %w", s.src.Name(), err)
		}
	}
	return nil
}

func (r *replayStage) verifyStream(s *replayStream) error {
	if s.llbpRes == nil || s.tslRes == nil {
		return fmt.Errorf("no completed replay to verify")
	}
	branches, cond, instrs, err := streamCounts(s)
	if err != nil {
		return err
	}
	for _, res := range []*sim.Result{s.llbpRes, s.tslRes} {
		if res.Branches != branches || res.CondBranches != cond || res.Instructions != instrs {
			return fmt.Errorf("%s counted %d branches, %d conditional, %d instructions; the stream has %d, %d, %d",
				res.Predictor, res.Branches, res.CondBranches, res.Instructions, branches, cond, instrs)
		}
	}
	misp, _, _, err := drive(s, tsl.MustNew(tsl.Config64K()), &predictor.Clock{})
	if err != nil {
		return err
	}
	if misp != s.tslRes.Mispredicts {
		return fmt.Errorf("64k: sim.Run counts %d mispredictions, a direct Predict/Update loop %d", s.tslRes.Mispredicts, misp)
	}
	var bad, overrides uint64
	res, _, _, err := r.replayOnce(s, experiments.SpecLLBPDefault(), sim.Options{
		Observer: func(b *trace.Branch, predicted bool, det predictor.Detail) {
			if det.LLBPOverrode {
				overrides++
			} else if predicted != det.BaselineTaken {
				bad++
			}
		},
	}, nil)
	if err != nil {
		return err
	}
	if *res != *s.llbpRes {
		return fmt.Errorf("llbp: an observed run differs from the timed run: %+v vs %+v", *res, *s.llbpRes)
	}
	if bad > 0 {
		return fmt.Errorf("llbp: %d predictions without an override differ from the baseline's", bad)
	}
	if overrides == 0 {
		return fmt.Errorf("llbp: no override in %d conditional branches; the stream does not exercise LLBP", cond)
	}
	return nil
}
