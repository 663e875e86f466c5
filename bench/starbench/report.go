package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the work counts below are
// scaled to it, so a run takes about this long on the recording box and
// exactly the same work on both commits of a comparison.
const defaultSeconds = 24

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics a user of the system would see, the same names
// on every workload, measured with tracing off. BENCHMARK.json repeats this
// list with each metric's direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"wire_kb_per_op", "KiB"},
}

// outDir is where a traced run writes its trace files and the journal
// probe its scratch file, relative to the repository root the tool runs in.
const outDir = "bench/out"

// runConfig is what a workload is given.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	stamp   stamp
	// probes holds the layer probes' unit costs on a traced run.
	probes map[string]float64
}

// result is one workload's outcome.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Error     string `json:"error,omitempty"`
	// Limit is the workload's latency limit, if it has one, and LimitMet
	// whether this run met it (failed ops count as missing it).
	Limit    string `json:"limit,omitempty"`
	LimitMet bool   `json:"limit_met,omitempty"`
	// Samples counts what each statistic rests on (ops, rounds, clusters).
	Samples map[string]int `json:"samples"`
	WallS   float64        `json:"wall_s"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// workload's own per-layer metrics (counters, shares, bench.*) of a
	// traced one — never both: end-to-end numbers come only from runs with
	// tracing off.
	Metrics map[string]float64 `json:"metrics"`
	traced  bool
}

// document is one full benchmark run: stamp plus a result per workload and,
// on a traced run, the layer probes' unit costs, which do not depend on the
// workload and are measured once.
type document struct {
	Stamp   stamp              `json:"stamp"`
	Trace   bool               `json:"trace"`
	Probes  map[string]float64 `json:"probes,omitempty"`
	Results []*result          `json:"results"`
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// driverLine is the single-object summary the benchmark driver reads from
// the last line of standard output: every end-to-end metric of an untraced
// run, every per-layer metric (probes included) of a traced one.
func (r *result) driverLine(probes map[string]float64) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range r.defs() {
		v, ok := probes[d.Name]
		if !ok {
			v = r.Metrics[d.Name]
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics}
}

func (d *document) print(w io.Writer) {
	s := d.Stamp
	fmt.Fprintf(w, "# starbench  %s  GOMAXPROCS=%d nproc=%d  cpu=%q  commit=%s  seed=%d seconds=%d trace=%v\n",
		s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.Commit, s.Seed, s.Seconds, d.Trace)
	if d.Trace {
		fmt.Fprintln(w, "\n## probes  (unit costs of single layers, the same for every workload)")
		for _, def := range perLayer {
			if v, ok := d.Probes[def.Name]; ok {
				fmt.Fprintf(w, "%-36s %16.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
	for _, r := range d.Results {
		fmt.Fprintf(w, "\n## %s  correct=%v attempted=%d failed=%d wall=%.1fs", r.Workload, r.Correct, r.Attempted, r.Failed, r.WallS)
		for _, k := range slices.Sorted(maps.Keys(r.Samples)) {
			fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
		}
		fmt.Fprintln(w)
		if r.Error != "" {
			fmt.Fprintf(w, "error: %s\n", r.Error)
		}
		if r.Limit != "" {
			fmt.Fprintf(w, "limit: %s met=%v\n", r.Limit, r.LimitMet)
		}
		for _, def := range r.defs() {
			if _, probed := d.Probes[def.Name]; !probed {
				fmt.Fprintf(w, "%-36s %16.6g %s\n", def.Name, r.Metrics[def.Name], def.Unit)
			}
		}
	}
}

// printSpread prints, per workload and metric, the median, quartiles and
// spreads over repeated runs, as the markdown table kept in bench/NOISE.md.
func printSpread(w io.Writer, docs []*document) {
	fmt.Fprintf(w, "\n## spread over %d runs (seeds %d..%d)\n\n", len(docs), docs[0].Stamp.Seed, docs[len(docs)-1].Stamp.Seed)
	fmt.Fprintln(w, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	row := func(workload string, def metricDef, value func(*document) float64) {
		xs := make([]float64, len(docs))
		for j, d := range docs {
			xs[j] = value(d)
		}
		if slices.Min(xs) == 0 && slices.Max(xs) == 0 {
			return
		}
		sp := spreadOf(xs)
		fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% |\n",
			workload, def.Name, def.Unit, sp.Median, sp.Q1, sp.Q3, 100*sp.IQRShare, 100*sp.RangeShare)
	}
	for _, def := range perLayer {
		if _, ok := docs[0].Probes[def.Name]; ok {
			row("probes", def, func(d *document) float64 { return d.Probes[def.Name] })
		}
	}
	for i, r0 := range docs[0].Results {
		for _, def := range r0.defs() {
			row(r0.Workload, def, func(d *document) float64 { return d.Results[i].Metrics[def.Name] })
		}
	}
}

// cheapest reduces the whole-round costs to their per-field minimum: host
// interference only ever adds, and on the simulator every round does the
// same work.
func cheapest(rounds []roundCost) roundCost {
	best := rounds[0]
	for _, r := range rounds[1:] {
		if r.ops != best.ops {
			panic("cheapest: rounds of unequal size")
		}
		best.wall = min(best.wall, r.wall)
		best.cpu = min(best.cpu, r.cpu)
		best.mallocs = min(best.mallocs, r.mallocs)
		best.bytes = min(best.bytes, r.bytes)
	}
	return best
}

func (r roundCost) allocs() float64  { return float64(r.mallocs) / float64(r.ops) }
func (r roundCost) allocKB() float64 { return float64(r.bytes) / 1024 / float64(r.ops) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
