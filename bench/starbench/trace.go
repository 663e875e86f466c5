package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are recorded
// only by the load-generator goroutine, so they nest strictly: parent is the
// span that was open when this one began (-1 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Count is the units of work the span covered (events, frames, ops);
	// 0 when the span is a plain call.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same workload code with one nil
// check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the currently open one and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("tracer: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Count = count
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += ns
	}
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Stamp       stamp            `json:"stamp"`
	Workload    string           `json:"workload"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	Spans       []spanOut        `json:"spans"`
}

type spanOut struct {
	span
	SelfNS int64 `json:"self_ns"`
}

// write stores the spans as bench/out/trace-<what>.json, what being a
// workload's name or "probes".
func (t *tracer) write(what string, st stamp) error {
	self := selfTimes(t.spans)
	out := traceFile{Stamp: st, Workload: what, LayerSelfNS: layerSelf(t.spans)}
	for i, s := range t.spans {
		out.Spans = append(out.Spans, spanOut{span: s, SelfNS: self[i]})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+what+".json"), data, 0o644)
}
