// Package repro is a reproduction of Fernández & Raynal, "From an
// intermittent rotating star to a leader" (IRISA PI-1810 / PODC 2007): the
// eventual-leader (Ω) algorithms of the paper's Figures 1-3 and §7, the
// assumption families they are correct under, the classical baselines they
// generalize, and an Ω-driven consensus and atomic-broadcast stack on top
// (Theorem 5) — all runnable on a deterministic discrete-event simulator and
// on a live goroutine runtime.
//
// User code imports exactly one package: repro/star, the public façade.
// A cluster is one call —
//
//	c, err := star.New(star.N(5), star.Resilience(2),
//	        star.Algorithm(star.Fig3),
//	        star.Scenario(star.Combined(star.Center(4))),
//	        star.Seed(7))
//
// — and everything else (transports, scenarios, churn, observers, the
// consensus/abcast application lanes, reports) is options and methods on
// it. See star's package documentation, README.md for the quickstart, and
// DESIGN.md for the architecture. The experiment layer is repro/star/harness;
// the examples/ directory shows every feature in a few lines each, and both
// CLIs (cmd/starsim, cmd/experiments) are built on the same two packages —
// CI rejects any internal/ import from examples or cmds.
//
// # Performance architecture
//
// Every experiment is bottlenecked by the simulation loop, so the hot path
// is engineered for a near-zero-allocation steady state and the experiment
// drivers for full-machine parallelism:
//
//   - internal/sim schedules events in a value-typed arena with a free list
//     and an index-based min-heap; EventIDs carry generation tags so Cancel
//     is O(1) with no map. Hot callers schedule typed events (sim.Handler)
//     instead of closures. See the internal/sim package comment for the
//     design and the determinism guarantees it preserves.
//   - internal/netsim recycles message envelopes through a per-network free
//     list (refilled in blocks, so even an adversarially growing in-flight
//     population costs O(peak/block) allocations), buffers pre-start
//     deliveries per process (flushed at Start), and counts per-kind
//     traffic in fixed arrays indexed by wire.Kind. It also owns the
//     payload recycle point: pooled wire messages are reference-counted
//     per send and returned to their sender's pool when the last
//     recipient's delivery completes.
//   - The protocol layers allocate nothing per message in steady state:
//     outgoing payloads (ALIVE susp_level snapshots, suspect bitsets,
//     consensus ballots, mux envelopes) come from per-node pools
//     (internal/wire), and all round-indexed bookkeeping lives in
//     fixed-size ring windows with row recycling (internal/rounds), with
//     an exact overflow map for pathological round skew. The order gate's
//     per-(receiver, round) state rides the same rings (rounds.Ring).
//   - Through the façade, per-round bookkeeping defaults to a bounded
//     retention window sized so pruning beats slot recycling: O(window)
//     memory with zero steady-state eviction copies;
//     star.UnboundedRetention() restores the paper's keep-everything
//     semantics for experiments.
//   - star/harness.RunGrid and cmd/experiments fan independent runs out
//     across a worker pool (internal/par); every run owns its cluster and
//     seeds, so results are byte-identical for every worker count.
//
// bench/starbench (`bash bench/run.sh`) is the benchmark of record; the
// root bench_test.go suite mirrors each experiment as a go test benchmark
// reporting domain metrics (virtual events per second, stabilization time).
package repro
