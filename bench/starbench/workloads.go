package main

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// workloads maps each benchmark workload to its runner. BENCHMARK.json
// repeats the names with the reason each exists.
var workloads = map[string]func(runConfig) *result{
	"sim-paper-n5":   simWorkload("sim-paper-n5", paperPlan, simPlan{rounds: 2}, runPaper),
	"sim-scale-n251": simWorkload("sim-scale-n251", scalePlan, simPlan{rounds: 1, colds: 2}, runScale),
	"tcp-abcast-n5": tcpWorkload("tcp-abcast-n5", abcastLimitP90MS, func(seed uint64, seconds int, tr *tracer) tcpResult {
		return runAbcast(seed, abcastOps(seconds), tr)
	}),
	"tcp-failover-n5": tcpWorkload("tcp-failover-n5", failoverLimitP90MS, func(seed uint64, seconds int, tr *tracer) tcpResult {
		return runFailover(seed, failoverClusters(seconds), tr)
	}),
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// Work counts scale with -seconds by changing only how often the fixed set
// of K ops is replayed (R), never K itself: the statistics keep their sample
// count and the two commits of a comparison do identical work.
func paperPlan(seconds int) simPlan { return simPlan{rounds: max(3, seconds/2)} }
func scalePlan(seconds int) simPlan { return simPlan{rounds: max(2, seconds/8), colds: 10} }

// simWorkload adapts a simulator workload to the registry. traced is the
// shortened plan of a traced run, executed once untraced (to measure the
// tracing overhead against) and once traced.
func simWorkload(name string, plan func(int) simPlan, traced simPlan, run func(uint64, simPlan, *tracer) simResult) func(runConfig) *result {
	return func(cfg runConfig) *result {
		if cfg.trace {
			return simTraced(name, cfg, traced, run)
		}
		sr := run(cfg.seed, plan(cfg.seconds), nil)
		res := newResult(name, false, sr.ops*len(sr.opMS), sr.failed, sr.firstErr)
		res.Samples["ops"] = sr.ops
		res.Samples["rounds"] = len(sr.opMS)
		res.Samples["setups"] = sr.setups
		if len(sr.rounds) == 0 {
			return res.fail(errNoMeasurement)
		}
		res.timing(sr.setupS, bestOf(sr.opMS))
		// Throughput is that of a round assembled from each op's best
		// replay: a whole round is long enough to always catch some
		// interference, a single op often runs clean.
		res.Metrics["ops_per_s"] = float64(sr.ops) / (sum(bestOf(sr.totalMS)) / 1e3)
		res.Metrics["allocs_per_op"] = cheapest(sr.rounds).allocs()
		res.Metrics["alloc_kb_per_op"] = cheapest(sr.rounds).allocKB()
		res.Metrics["wire_kb_per_op"] = float64(sr.ctr[ctrBytes]) / 1024 / float64(sr.ops)
		return res
	}
}

// simTraced runs the shortened traced pass of a simulator workload and
// reports its per-layer metrics: counters, shares (which need the layer
// probes' unit costs) and the bench.* reference numbers.
func simTraced(name string, cfg runConfig, plan simPlan, run func(uint64, simPlan, *tracer) simResult) *result {
	plain := run(cfg.seed, plan, nil)
	tr := newTracer()
	sr := run(cfg.seed, plan, tr)
	res := newResult(name, true, sr.ops*len(sr.opMS), sr.failed+plain.failed, firstOf(sr.firstErr, plain.firstErr))
	res.Samples["ops"] = sr.ops
	if len(sr.rounds) == 0 || len(plain.rounds) == 0 {
		return res.fail(errNoMeasurement)
	}
	ops := float64(sr.ops)
	counterMetrics(res.Metrics, sr.ctr, ops, false)
	res.rawTiming(slices.Concat(plain.opMS...))
	plainNS, tracedNS := float64(cheapest(plain.rounds).wall), float64(cheapest(sr.rounds).wall)
	res.Metrics["bench.trace_overhead_pct"] = 100 * (tracedNS - plainNS) / plainNS
	res.Metrics["bench.cpu_ms_per_op"] = sum(bestOf(plain.cpuMS)) / ops
	shareMetrics(res.Metrics, cfg.probes, name, sr.ctr, plainNS)
	return res.writeTrace(tr, cfg.stamp)
}

func firstOf(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func newResult(name string, traced bool, attempted, failed int, err error) *result {
	r := &result{Workload: name, Correct: failed == 0 && err == nil, Attempted: attempted, Failed: failed,
		Samples: map[string]int{}, Metrics: map[string]float64{}, traced: traced}
	if err != nil {
		r.Error = err.Error()
	}
	return r
}

// timing fills the three timing metrics every workload shares from its
// set-up time (seconds) and per-op times (milliseconds).
func (r *result) timing(setupS float64, opMS []float64) {
	r.Metrics["setup_s"] = setupS
	r.Metrics["op_ms_p50"] = median(opMS)
	p90, err := percentile(opMS, 0.9)
	if err != nil {
		r.fail(err)
	}
	r.Metrics["op_ms_p90"] = p90
}

// rawTiming fills the traced pass's reference statistics: the median and
// p90 of the untraced pass's raw per-op times, no best-of applied.
func (r *result) rawTiming(opMS []float64) {
	r.Metrics["bench.raw_op_ms_p50"] = median(opMS)
	if p90, err := percentile(opMS, 0.9); err == nil {
		r.Metrics["bench.raw_op_ms_p90"] = p90
	}
}

// writeTrace writes the traced pass's spans to bench/out/trace-<workload>.json.
func (r *result) writeTrace(tr *tracer, st stamp) *result {
	if err := tr.write(r.Workload, st); err != nil {
		r.fail(err)
	}
	return r
}

// errNoMeasurement marks a workload that broke before producing one window.
var errNoMeasurement = errors.New("workload produced no measurement")

// fail marks the result incorrect, keeping the first error as its reason.
func (r *result) fail(err error) *result {
	r.Correct = false
	if r.Error == "" {
		r.Error = err.Error()
	}
	return r
}

// Latency limits on p90; a failed op is recorded at its time-out, far beyond
// either, so failures count as missing the limit.
const (
	abcastLimitP90MS   = 120
	failoverLimitP90MS = 250
)

// tracedShare is the share of the run length the shortened traced pass (and
// the untraced pass it is compared with) gets.
const tracedShare = 4

// tcpWorkload adapts a wall-clock workload to the registry.
func tcpWorkload(name string, limitP90MS float64, run func(seed uint64, seconds int, tr *tracer) tcpResult) func(runConfig) *result {
	return func(cfg runConfig) *result {
		if cfg.trace {
			return tcpTraced(name, cfg, run)
		}
		tr := run(cfg.seed, cfg.seconds, nil)
		res := newResult(name, false, tr.attempted, tr.failed, firstOf(tr.errs...))
		res.Samples["ops"] = len(tr.latMS)
		res.Samples["setups"] = len(tr.setupMS)
		if len(tr.latMS) == 0 || len(tr.setupMS) == 0 {
			return res.fail(errNoMeasurement)
		}
		res.timing(median(tr.setupMS)/1e3, tr.latMS)
		p90 := res.Metrics["op_ms_p90"]
		res.LimitMet = p90 > 0 && p90 <= limitP90MS
		res.Limit = fmt.Sprintf("op_ms_p90 <= %g ms", limitP90MS)
		res.Metrics["ops_per_s"] = float64(tr.attempted-tr.failed) / tr.window.wall.Seconds()
		res.Metrics["allocs_per_op"] = tr.window.allocs()
		res.Metrics["alloc_kb_per_op"] = tr.window.allocKB()
		res.Metrics["wire_kb_per_op"] = float64(tr.ctr[ctrBytes]) / 1024 / float64(tr.attempted)
		return res
	}
}

// tcpTraced runs a shortened untraced pass and the same pass traced, and
// reports the workload's per-layer metrics.
func tcpTraced(name string, cfg runConfig, run func(seed uint64, seconds int, tr *tracer) tcpResult) *result {
	short := max(1, cfg.seconds/tracedShare)
	plain := run(cfg.seed, short, nil)
	tr := newTracer()
	traced := run(cfg.seed, short, tr)
	res := newResult(name, true, traced.attempted, traced.failed+plain.failed, firstOf(append(traced.errs, plain.errs...)...))
	res.Samples["ops"] = len(traced.latMS)
	if len(traced.latMS) == 0 || len(plain.latMS) == 0 {
		return res.fail(errNoMeasurement)
	}
	ops := float64(traced.attempted)
	counterMetrics(res.Metrics, traced.ctr, ops, true)
	res.rawTiming(plain.latMS)
	if p99, err := percentile(traced.lateMS, 0.99); err == nil {
		res.Metrics["bench.gen_late_ms_p99"] = p99
	}
	res.Metrics["bench.cpu_ms_per_op"] = float64(plain.window.cpu) / 1e6 / float64(plain.attempted)
	plainCPU, tracedCPU := plain.window.cpu.Seconds(), traced.window.cpu.Seconds()
	res.Metrics["bench.trace_overhead_pct"] = 100 * (tracedCPU - plainCPU) / plainCPU
	return res.writeTrace(tr, cfg.stamp)
}
