package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"llbp/internal/core"
	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/session"
	"llbp/internal/sim"
	"llbp/internal/tage"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/tsl"
)

// layerSumMargin is how far the replay layer sum may stray from the
// end-to-end llbp time per branch before the self-check reports it.
const layerSumMargin = 0.20

// noopPredictor predicts not-taken and learns nothing: sim.Run with it
// times sim.Run's own loop alone.
type noopPredictor struct{}

func (noopPredictor) Name() string                                { return "noop" }
func (noopPredictor) Predict(uint64) bool                         { return false }
func (noopPredictor) Update(uint64, bool)                         {}
func (noopPredictor) TrackOther(uint64, uint64, trace.BranchType) {}

// traced is the traced run: untraced cycles, as many traced cycles,
// as many untraced cycles again (the traced-minus-untraced difference is
// the tracing overhead), then the per-layer measurements, each inside a
// span.
func (b *bench) traced() error {
	n := b.opt.sz.tracedCycles
	a1 := b.cycles(nil, n)
	sp := newSpans()
	tr := b.cycles(sp, n)
	a2 := b.cycles(nil, n)
	base := (a1 + a2) / 2
	b.tracedOverhead = (tr - base) / base * 100
	fmt.Fprintf(b.opt.log, "tracing overhead: %d untraced cycles %.3f s, %d traced %.3f s, %d untraced %.3f s: %+.2f%%\n",
		n, a1, n, tr, n, a2, b.tracedOverhead)

	if err := b.measureLayers(sp); err != nil {
		return err
	}
	sp.printSelfTimes(b.opt.log)
	path := filepath.Join(b.opt.dir, fmt.Sprintf("trace-%s-%d.json", b.opt.workload, b.opt.seed))
	if err := sp.write(path); err != nil {
		return err
	}
	fmt.Fprintf(b.opt.log, "spans written to %s\n", path)
	return nil
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// measureLayers takes every per-layer measurement, each from outside
// the layer by timing the calls the benchmark makes into it.
func (b *bench) measureLayers(sp *spans) error {
	L := map[string]metric{}
	b.layers = L
	put := func(name, unit string, v float64) { L[name] = metric{Value: v, Unit: unit} }
	sz := b.opt.sz
	rp := b.st.replay
	s0 := rp.streams[0] // single-stream measurements use the first stream
	n := float64(rp.sz.replayBranches)
	reps := sz.layerReps

	// workload: synthesis of the replay stream's generator.
	id := sp.begin("workload", "synthesize")
	d, err := timeMedian(reps, func() error {
		rd := s0.src.OpenBatch()
		buf := make([]trace.Branch, 4096)
		for got := 0; got < int(n); {
			k, err := rd.ReadBatch(buf)
			got += k
			if err != nil {
				return err
			}
		}
		return nil
	})
	sp.end(id)
	if err != nil {
		return err
	}
	put("workload.synth_ns_per_branch", "ns", float64(d)/n)

	// trace: decoding a cache handle, and a cold fill of the matrix inputs.
	id = sp.begin("trace", "decode cache handle")
	decode, err := timeMedian(reps, func() error {
		_, _, _, err := streamCounts(s0)
		return err
	})
	sp.end(id)
	if err != nil {
		return err
	}
	put("trace.decode_ns_per_branch", "ns", float64(decode)/n)
	id = sp.begin("trace", "cache fill")
	fill, err := timeMedian(reps, func() error {
		c := cache.New(0)
		for _, wl := range b.st.matrix.wls {
			hd, err := c.Acquire(wl, sz.matrixWarm+sz.matrixMeas)
			if err != nil {
				return err
			}
			hd.Release()
		}
		return nil
	})
	sp.end(id)
	if err != nil {
		return err
	}
	put("trace.cache_fill_s", "s", fill.Seconds())
	last := b.st.matrix.rounds[len(b.st.matrix.rounds)-1]
	put("trace.cache_hits", "count", float64(last.cache.Hits))
	put("trace.cache_misses", "count", float64(last.cache.Misses))

	// sim: sim.Run's loop with a predictor that does nothing.
	id = sp.begin("sim", "sim.Run noop")
	loop, err := timeMedian(reps, func() error {
		_, err := sim.Run(s0.hd, noopPredictor{}, sim.Options{MeasureBranches: rp.sz.replayBranches})
		return err
	})
	sp.end(id)
	if err != nil {
		return err
	}
	put("sim.loop_ns_per_branch", "ns", float64(loop-decode)/n)

	// history, core: the core microbenchmarks.
	for _, mb := range core.Microbenches() {
		name := map[string]string{
			"engine-push": "history.push_ns", "match-patterns": "core.match_ns",
			"pb-lookup": "core.pb_lookup_ns", "patternset-clone": "core.clone_ns",
		}[mb.Name]
		if name == "" {
			continue
		}
		layer := "core"
		if mb.Name == "engine-push" {
			layer = "history"
		}
		id := sp.begin(layer, mb.Name)
		d, _ := timeMedian(reps, func() error { mb.Run(sz.microIters); return nil })
		sp.end(id)
		put(name, "ns", float64(d)/float64(sz.microIters))
	}

	// tage, tsl, core: each predictor alone over the replay stream.
	var condShare float64
	alone := []struct {
		layer, name string
		build       func(clock *predictor.Clock) (predictor.Predictor, error)
	}{
		{"tage", "tage.ns_per_cond", func(*predictor.Clock) (predictor.Predictor, error) { return tage.New(tage.DefaultConfig()) }},
		{"tsl", "tsl.ns_per_cond", func(*predictor.Clock) (predictor.Predictor, error) { return tsl.New(tsl.Config64K()) }},
		{"core", "core.ns_per_cond", experiments.SpecLLBPDefault().Build},
	}
	var coreNS float64
	for _, a := range alone {
		var ds []float64
		for i := 0; i < reps; i++ {
			clock := &predictor.Clock{}
			p, err := a.build(clock)
			if err != nil {
				return err
			}
			id := sp.begin(a.layer, a.name)
			_, cond, d, err := drive(s0, p, clock)
			sp.end(id)
			if err != nil {
				return err
			}
			ds = append(ds, float64(d)/float64(cond))
			condShare = float64(cond) / n
		}
		put(a.name, "ns", median(ds))
		if a.layer == "core" {
			coreNS = median(ds)
		}
	}

	// Model counts from the timed replays of the first stream: a
	// host-speed change leaves them exactly equal.
	st := s0.llbpStats
	put("tsl.mpki", "mpki", s0.tslRes.MPKI)
	put("core.mpki", "mpki", s0.llbpRes.MPKI)
	put("core.pb_hit_ratio", "ratio", ratio(st.PBHits, st.PBHits+st.NotReady+st.PBMisses))
	put("core.prefetch_useful_ratio", "ratio", ratio(st.PrefetchFilled, st.PrefetchIssued))
	put("core.cd_evictions", "count", float64(st.CDEvictions))

	// runtime: allocation on the llbp replay, GC pauses in the matrix.
	put("runtime.alloc_bytes_per_branch", "B", rp.allocPerBranch)
	put("runtime.gc_pause_ms", "ms", last.gcPauseMS)

	// telemetry: llbp replay with a registry attached, minus without.
	var diffs, offs []float64
	for i := 0; i < reps; i++ {
		id := sp.begin("telemetry", "attached replay")
		_, _, off, err := rp.replayOnce(s0, experiments.SpecLLBPDefault(), sim.Options{}, nil)
		if err != nil {
			sp.end(id)
			return err
		}
		_, _, on, err := rp.replayOnce(s0, experiments.SpecLLBPDefault(), sim.Options{Telemetry: telemetry.NewRegistry()}, nil)
		sp.end(id)
		if err != nil {
			return err
		}
		diffs = append(diffs, float64(on-off)/n)
		offs = append(offs, float64(off)/n)
	}
	put("telemetry.attached_ns_per_branch", "ns", median(diffs))

	// experiments, harness.
	for _, fig := range []string{"fig2", "fig9", "fig13", "fig14"} {
		var xs []float64
		for _, r := range b.st.matrix.rounds {
			xs = append(xs, r.figs[fig])
		}
		put("experiments."+fig+"_s", "s", median(xs))
	}
	f14 := core.DefaultConfig()
	f14.FullAssocCD, f14.CIDBits, f14.Buckets, f14.PrefetchDelay = true, 31, 0, 0
	f14.NumContexts, f14.PatternsPerSet = 32768, 64
	builds := []struct {
		name string
		spec experiments.PredictorSpec
	}{
		{"1m", experiments.Spec1M()},
		{"inftage", experiments.SpecInfTAGE()},
		{"llbp", experiments.SpecLLBPDefault()},
		{"fig14max", experiments.SpecLLBP("fig14max", f14)},
	}
	for _, bd := range builds {
		id := sp.begin("experiments", "build "+bd.name)
		d, err := timeMedian(reps, func() error {
			_, err := bd.spec.Build(&predictor.Clock{})
			return err
		})
		sp.end(id)
		if err != nil {
			return err
		}
		put("experiments.build_ms."+bd.name, "ms", float64(d)/1e6)
	}
	put("harness.cells", "count", float64(last.cellsRun))
	id = sp.begin("harness", "memo census")
	hits, err := b.st.matrix.memoHits()
	sp.end(id)
	if err != nil {
		return err
	}
	put("harness.memo_hits", "count", float64(hits))
	put("harness.concurrency", "ratio", last.cellTimeMS/1e3/last.wall)

	// session.
	if err := b.sessionLayers(put, sp); err != nil {
		return err
	}

	// service, http. Job latencies are reported here, without a bound:
	// on the reference host their spread over ten runs reached 0.33
	// (README.md).
	js := b.st.jobs
	for _, p := range []float64{50, 90} {
		v, err := percentile(js.latMS, p)
		if err != nil {
			return fmt.Errorf("service.job_latency_p%g_ms: %w", p, err)
		}
		put(fmt.Sprintf("service.job_latency_p%g_ms", p), "ms", v)
	}
	put("service.submit_ms", "ms", median(js.submitMS))
	id = sp.begin("service", "RunCell in process")
	cellMS, latMS, err := js.cellTimes(sz.cellSample)
	sp.end(id)
	if err != nil {
		return err
	}
	put("service.cell_ms", "ms", median(cellMS))
	over := make([]float64, len(cellMS))
	for i := range cellMS {
		over[i] = latMS[i] - cellMS[i]
	}
	put("service.overhead_ms", "ms", median(over))
	var rtt []float64
	id = sp.begin("service", "GET /healthz")
	for i := 0; i < sz.healthPings; i++ {
		t0 := time.Now()
		if err := b.st.d.cl.Health(context.Background()); err != nil {
			sp.end(id)
			return err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e6)
	}
	sp.end(id)
	put("http.rtt_ms", "ms", median(rtt))
	put("tracing.overhead_pct", "%", b.tracedOverhead)

	// The replay self-check: the layers must account for the
	// end-to-end llbp time per branch, measured in this same phase (the
	// untraced replays above), since the host's speed moves over a run.
	e2e := median(offs)
	sum := L["trace.decode_ns_per_branch"].Value + L["sim.loop_ns_per_branch"].Value + coreNS*condShare
	verdict := "ok"
	if r := sum / e2e; r < 1-layerSumMargin || r > 1+layerSumMargin {
		verdict = "OUTSIDE MARGIN"
	}
	fmt.Fprintf(b.opt.log, "replay layer sum: decode %.1f + loop %.1f + core %.1f ns/cond × %.3f cond share = %.1f ns/branch; whole llbp replay %.1f ns/branch; ratio %.3f, margin ±%.0f%%: %s\n",
		L["trace.decode_ns_per_branch"].Value, L["sim.loop_ns_per_branch"].Value, coreNS, condShare, sum, e2e, sum/e2e, layerSumMargin*100, verdict)
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sessionLayers measures the session layer in process over the frames
// the closed-loop client pushed: decoding them, applying them with the
// journal off and on, and explicit checkpoints.
func (b *bench) sessionLayers(put func(name, unit string, v float64), sp *spans) error {
	ss := b.st.sess
	put("session.open_ms", "ms", median(b.openMS))
	// The push→verdict tail is reported here, without a bound: on the
	// reference host its run-to-run spread reached 0.41 (README.md).
	p99, err := percentile(ss.latMS, 99)
	if err != nil {
		return fmt.Errorf("session.push_verdict_p99_ms: %w", err)
	}
	put("session.push_verdict_p99_ms", "ms", p99)
	// So is the session's throughput, which the same tail drags: on the
	// reference host a set of ten runs spread 0.28 (README.md).
	put("session.branches_per_s", "branches/s", median(ss.rates))
	var branches int
	for _, f := range ss.recorded {
		branches += len(f.Branches)
	}
	id := sp.begin("session", "FrameReader.Next")
	d, err := timeMedian(b.opt.sz.layerReps, func() error {
		fr := session.NewFrameReader(bytes.NewReader(ss.recBytes.Bytes()))
		for {
			if _, err := fr.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	sp.end(id)
	if err != nil {
		return err
	}
	put("session.decode_ns_per_branch", "ns", float64(d)/float64(branches))

	apply := func(journal string, checkpoints int) (time.Duration, []float64, error) {
		h := experiments.NewHarness(experiments.Config{TraceCache: cache.New(0)})
		m, err := session.New(session.Options{Forker: h, JournalPath: journal, CheckpointBranches: 1 << 62})
		if err != nil {
			return 0, nil, err
		}
		defer m.Shutdown()
		ctx := context.Background()
		st, err := m.Open(ctx, session.Request{Schema: session.Schema, Predictor: sessionPredictor,
			Workload: ss.warmWL, Warmup: b.opt.sz.sessionWarmup})
		if err != nil {
			return 0, nil, err
		}
		c, err := m.Claim(ctx, st.ID, "perfbench")
		if err != nil {
			return 0, nil, err
		}
		defer c.Release()
		t0 := time.Now()
		for _, f := range ss.recorded {
			if _, err := c.Apply(f); err != nil {
				return 0, nil, err
			}
		}
		dt := time.Since(t0)
		var ck []float64
		for i := 0; i < checkpoints; i++ {
			t := time.Now()
			if _, err := c.Checkpoint(); err != nil {
				return 0, nil, err
			}
			ck = append(ck, float64(time.Since(t))/1e6)
		}
		return dt, ck, nil
	}
	var off, on, ckpt []float64
	for i := 0; i < b.opt.sz.layerReps; i++ {
		id := sp.begin("session", "Claim.Apply journal off")
		d, _, err := apply("", 0)
		sp.end(id)
		if err != nil {
			return err
		}
		off = append(off, float64(d))
		id = sp.begin("session", "Claim.Apply journal on")
		d, ck, err := apply(filepath.Join(b.work, fmt.Sprintf("layer-%d.sessions", i)), 10)
		sp.end(id)
		if err != nil {
			return err
		}
		on = append(on, float64(d))
		ckpt = append(ckpt, ck...)
	}
	put("session.apply_ns_per_branch", "ns", median(off)/float64(branches))
	put("session.journal_ms_per_batch", "ms", (median(on)-median(off))/1e6/float64(len(ss.recorded)))
	put("session.checkpoint_ms", "ms", median(ckpt))
	return nil
}

// layerResult is the traced run's result: every per-layer metric.
func (b *bench) layerResult() (*result, error) {
	for _, name := range sortedNames(b.layers) {
		fmt.Fprintf(b.opt.log, "%-34s %16.4f %s\n", name, b.layers[name].Value, b.layers[name].Unit)
	}
	return &result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: b.layers}, nil
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
