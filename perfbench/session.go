package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/pipeline"
	"llbp/internal/predictor"
	"llbp/internal/session"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

// sessionPredictor is the session's predictor. Its warm snapshot comes
// from the workload's catalog entry (llbpd forks snapshots by catalog
// name only); the pushed stream is a re-seeded workload of the same
// shape.
const sessionPredictor = "llbp"

// sessionStage is one closed-loop client of an llbp session: it writes
// a branch-batch frame on its push connection and waits for the batch's
// predictions frame on its stream connection before it sends the next.
type sessionStage struct {
	sz     sizes
	warmWL string // catalog name of the warm snapshot
	src    *workload.Source
	rd     trace.BatchReader
	id     string
	open   time.Duration

	pushW    *io.PipeWriter
	pushDone chan error
	verdicts chan session.OutFrame
	strDone  chan error
	cancel   context.CancelFunc

	seq      uint64
	pushed   uint64 // branches pushed
	recorded []session.Frame
	recBytes bytes.Buffer

	latMS     []float64
	rates     []float64
	outcomes  [][]byte // one verdict string per batch, in batch order
	batchLens []int
}

// openSession opens the session (forking the daemon's warm snapshot) and
// attaches the push and stream connections. It is part of set-up.
func openSession(d *daemon, sz sizes, seed uint64, shape string) (*sessionStage, error) {
	src, err := reseeded(shape, subSeed(seed, streamSession, 0))
	if err != nil {
		return nil, err
	}
	s := &sessionStage{sz: sz, warmWL: shape, src: src, rd: src.OpenBatch()}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	t0 := time.Now()
	st, err := d.cl.OpenSession(ctx, session.Request{
		Schema: session.Schema, Predictor: sessionPredictor, Workload: s.warmWL,
		Warmup: sz.sessionWarmup, Tenant: "perfbench",
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("opening session: %w", err)
	}
	s.open = time.Since(t0)
	s.id = st.ID

	s.verdicts = make(chan session.OutFrame)
	s.strDone = make(chan error, 1)
	go func() {
		s.strDone <- d.cl.StreamSession(ctx, s.id, true, func(of session.OutFrame) error {
			if of.Type != session.FramePredictions {
				return nil // checkpoint acks and the done frame
			}
			select {
			case s.verdicts <- of:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	pr, pw := io.Pipe()
	s.pushW = pw
	s.pushDone = make(chan error, 1)
	go func() {
		sum, err := d.cl.PushSessionReader(ctx, s.id, "perfbench", pr)
		if err == nil && sum.Error != "" {
			err = errors.New(sum.Error)
		}
		if err == nil && !sum.Closed {
			err = fmt.Errorf("push connection ended without closing the session (seq %d)", sum.LastSeq)
		}
		pr.CloseWithError(err)
		s.pushDone <- err
	}()
	return s, nil
}

// nextFrames generates and encodes the next n batches of the pushed
// stream, before the timed loop, so the loop times only the service.
func (s *sessionStage) nextFrames(n int) ([][]byte, []session.Frame, error) {
	bufs := make([][]byte, 0, n)
	frames := make([]session.Frame, 0, n)
	batch := make([]trace.Branch, s.sz.batchBranches)
	for i := 0; i < n; i++ {
		got, err := s.rd.ReadBatch(batch)
		if got < len(batch) {
			return nil, nil, fmt.Errorf("session stream ended after %d branches: %v", s.pushed, err)
		}
		recs := make([]session.BranchRec, got)
		for k, b := range batch[:got] {
			recs[k] = session.BranchRec{PC: b.PC, Target: b.Target, Kind: uint8(b.Type), Taken: b.Taken,
				Instructions: b.Instructions, TargetMiss: b.MispredictedTarget}
		}
		s.seq++
		f := session.Frame{Type: session.FrameBranchBatch, Seq: s.seq, Branches: recs}
		line, err := json.Marshal(f)
		if err != nil {
			return nil, nil, err
		}
		bufs = append(bufs, append(line, '\n'))
		frames = append(frames, f)
	}
	return bufs, frames, nil
}

// unit pushes sz.sessionBatches batches in closed loop and returns how
// many were answered correctly.
func (s *sessionStage) unit(sp *spans) (ok int, err error) {
	bufs, frames, err := s.nextFrames(s.sz.sessionBatches)
	if err != nil {
		return 0, err
	}
	for i, f := range frames {
		if len(s.recorded) < s.sz.recordBatches {
			s.recorded = append(s.recorded, f)
			s.recBytes.Write(bufs[i])
		}
	}
	rs := sp.begin("session", "session unit")
	defer sp.end(rs)
	start := time.Now()
	var branches uint64
	for i, buf := range bufs {
		id := sp.begin("session", "push→verdict")
		t0 := time.Now()
		if _, err := s.pushW.Write(buf); err != nil {
			sp.end(id)
			return i, fmt.Errorf("writing batch %d: %w", frames[i].Seq, err)
		}
		var of session.OutFrame
		select {
		case of = <-s.verdicts:
		case err := <-s.strDone:
			sp.end(id)
			return i, fmt.Errorf("stream ended before batch %d's predictions: %v", frames[i].Seq, err)
		}
		s.latMS = append(s.latMS, float64(time.Since(t0))/1e6)
		sp.end(id)
		if of.Batch != frames[i].Seq || of.N != len(frames[i].Branches) {
			return i, fmt.Errorf("predictions frame answers batch %d (%d branches), want %d (%d)",
				of.Batch, of.N, frames[i].Seq, len(frames[i].Branches))
		}
		raw, err := session.DecodeOutcomes(of.Outcomes)
		if err != nil {
			return i, err
		}
		s.outcomes = append(s.outcomes, raw)
		s.batchLens = append(s.batchLens, of.N)
		branches += uint64(of.N)
	}
	s.rates = append(s.rates, float64(branches)/time.Since(start).Seconds())
	s.pushed += branches
	return len(bufs), nil
}

// close says bye (closing the session), then waits for both connections.
func (s *sessionStage) close() error {
	defer s.cancel()
	bye, _ := json.Marshal(session.Frame{Type: session.FrameBye})
	_, werr := s.pushW.Write(append(bye, '\n'))
	s.pushW.Close()
	perr := <-s.pushDone
	serr := <-s.strDone
	if werr != nil {
		return fmt.Errorf("writing bye: %w", werr)
	}
	return errors.Join(perr, serr)
}

// verify replays the pushed branches through a freshly built llbp warmed
// with sim.Warm on the catalog prefix, applying each branch as the
// session protocol specifies, and compares every verdict byte.
func (s *sessionStage) verify() error {
	clock := &predictor.Clock{}
	p, err := experiments.SpecLLBPDefault().Build(clock)
	if err != nil {
		return err
	}
	wl, err := workload.ByName(s.warmWL)
	if err != nil {
		return err
	}
	if err := sim.Warm(wl, p, sim.Options{WarmupBranches: s.sz.sessionWarmup, Clock: clock}); err != nil {
		return err
	}
	rd := s.src.OpenBatch()
	drv := newStepper(p, clock)
	batch := make([]trace.Branch, s.sz.batchBranches)
	for bi, got := range s.outcomes {
		n, _ := rd.ReadBatch(batch[:s.batchLens[bi]])
		if n != s.batchLens[bi] {
			return fmt.Errorf("regenerating batch %d: got %d branches", bi+1, n)
		}
		k := 0
		for i := range batch[:n] {
			b := &batch[i]
			o, cond := drv.step(b)
			if !cond {
				continue
			}
			if k >= len(got) {
				return fmt.Errorf("batch %d: %d verdict bytes for more conditional branches", bi+1, len(got))
			}
			v := got[k]
			if taken := b.Taken; (v&session.OutcomeMispredict != 0) != ((v&session.OutcomeTaken != 0) != taken) {
				return fmt.Errorf("batch %d byte %d: mispredict bit %#x disagrees with prediction XOR taken", bi+1, k, v)
			}
			if v != o {
				return fmt.Errorf("batch %d byte %d: verdict %#x, reference replay %#x", bi+1, k, v, o)
			}
			k++
		}
		if k != len(got) {
			return fmt.Errorf("batch %d: %d verdict bytes, %d conditional branches", bi+1, len(got), k)
		}
	}
	return nil
}

// stepper applies branches to a predictor as the session protocol
// specifies (and as sim.Run's warm-up phase does): straight-line
// instructions retire at base CPI, conditional branches are predicted
// then trained, and mispredictions and target misses charge their
// penalty and reset the pipeline. The optional interfaces are resolved
// once, so driving a predictor alone costs what sim.Run's loop costs.
type stepper struct {
	p     predictor.Predictor
	tu    predictor.TargetUpdater
	rs    predictor.Resettable
	clock *predictor.Clock
	pipe  pipeline.Config
}

func newStepper(p predictor.Predictor, clock *predictor.Clock) *stepper {
	d := &stepper{p: p, clock: clock, pipe: pipeline.Default()}
	d.tu, _ = p.(predictor.TargetUpdater)
	d.rs, _ = p.(predictor.Resettable)
	return d
}

// step applies b and returns its verdict byte when it is conditional.
func (d *stepper) step(b *trace.Branch) (o byte, cond bool) {
	d.clock.Advance(float64(b.Instructions) * d.pipe.BaseCPI)
	if b.Type.IsConditional() {
		pred := d.p.Predict(b.PC)
		if d.tu != nil {
			d.tu.UpdateWithTarget(b.PC, b.Target, b.Taken)
		} else {
			d.p.Update(b.PC, b.Taken)
		}
		if pred {
			o |= session.OutcomeTaken
		}
		if pred != b.Taken {
			o |= session.OutcomeMispredict
			d.clock.Advance(d.pipe.MispredictPenalty)
			if d.rs != nil {
				d.rs.OnPipelineReset()
			}
		}
		return o, true
	}
	d.p.TrackOther(b.PC, b.Target, b.Type)
	if b.MispredictedTarget {
		d.clock.Advance(d.pipe.TargetMissPenalty)
		if d.rs != nil {
			d.rs.OnPipelineReset()
		}
	}
	return 0, false
}
