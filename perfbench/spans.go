package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"llbp/internal/telemetry"
)

// pidBench is the trace-event process the benchmark's own spans render
// on, apart from the program's sim/harness/service pids.
const pidBench = 100

// spanRec is one recorded span: a call from the benchmark into a layer.
type spanRec struct {
	id, parent  int
	layer, name string
	start, dur  float64 // µs since the tracer started
}

// spans records the benchmark's spans on its main goroutine. A nil
// *spans is the untraced run: begin and end cost one pointer test.
// Spans are kept in memory (the telemetry.Tracer writes into a buffer)
// and written out once, when the run ends, so file I/O never lands
// inside a timed region.
type spans struct {
	buf   bytes.Buffer
	tr    *telemetry.Tracer
	recs  []spanRec
	stack []int
}

func newSpans() *spans {
	s := &spans{}
	s.tr = telemetry.NewTracer(&s.buf)
	s.tr.ProcessName(pidBench, "perfbench")
	return s
}

// begin opens a span in layer; the innermost open span is its parent.
func (s *spans) begin(layer, name string) int {
	if s == nil {
		return -1
	}
	id := len(s.recs)
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.recs = append(s.recs, spanRec{id: id, parent: parent, layer: layer, name: name, start: s.tr.Since()})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id (and any span left open inside it).
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := s.tr.Since()
	for len(s.stack) > 0 {
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		r := &s.recs[top]
		r.dur = now - r.start
		args := map[string]any{"layer": r.layer, "span": r.id}
		if r.parent >= 0 {
			args["parent"] = r.parent
		}
		s.tr.Span(pidBench, 1, r.name, r.layer, r.start, r.dur, args)
		if top == id {
			return
		}
	}
}

// layerTime is one layer's total and self time over a run.
type layerTime struct {
	layer       string
	spans       int
	total, self float64 // µs
}

// selfTimes sums each layer's span time, and its self time: a span's
// duration minus the part its child spans cover.
func (s *spans) selfTimes() []layerTime {
	child := make([]float64, len(s.recs))
	for _, r := range s.recs {
		if r.parent >= 0 {
			child[r.parent] += r.dur
		}
	}
	by := map[string]*layerTime{}
	for _, r := range s.recs {
		lt := by[r.layer]
		if lt == nil {
			lt = &layerTime{layer: r.layer}
			by[r.layer] = lt
		}
		lt.spans++
		lt.total += r.dur
		lt.self += r.dur - child[r.id]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// write closes the tracer and writes the Chrome trace-event file.
func (s *spans) write(path string) error {
	if err := s.tr.Close(); err != nil {
		return fmt.Errorf("closing tracer: %w", err)
	}
	return os.WriteFile(path, s.buf.Bytes(), 0o644)
}

func (s *spans) printSelfTimes(w io.Writer) {
	for _, lt := range s.selfTimes() {
		fmt.Fprintf(w, "self time  %-12s %9.3f s self  %9.3f s total  %6d spans\n",
			lt.layer, lt.self/1e6, lt.total/1e6, lt.spans)
	}
}
