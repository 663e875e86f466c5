// Package core implements the paper's contribution: the eventual-leader (Ω)
// algorithms of Fernández & Raynal, "From an intermittent rotating star to a
// leader" (IRISA PI-1810, 2006 / PODC 2007).
//
// The package provides one Node type with four variants that correspond to
// the paper's incremental presentation:
//
//   - VariantFig1: the algorithm of Figure 1, correct in AS[n,t; A']
//     (the eventual rotating t-star holds at every round ≥ RN₀).
//   - VariantFig2: Figure 2, which adds the window test (line "*") and is
//     correct in AS[n,t; A] (the star is intermittent: it holds only on an
//     infinite round subsequence with gaps bounded by an unknown D).
//   - VariantFig3: Figure 3, which adds the minimum test (line "**") and
//     bounds every local variable and timeout except the round numbers
//     (Theorem 4: no susp_level entry ever exceeds B+1, where B is the
//     eventual common minimum; Lemma 8: within one process the spread
//     max-min of susp_level never exceeds 1).
//   - VariantFG: Figure 3 extended per Section 7 with two known functions f
//     and g that let the star gaps (D + f(rn)) and the timely-message delays
//     (δ + g(rn)) grow without bound.
//
// A fifth variant is the baseline the paper subsumes rather than one of its
// figures:
//
//   - VariantTimeFree: Figure 1 without the timer conjunct of line 8, i.e.
//     the time-free message-pattern construction of Mostéfaoui, Mourgaya &
//     Raynal [16,18]. A receiving round closes after alpha receptions, the
//     processes not among its winners are its suspects, and no round timer
//     is ever armed. It is correct when t processes always receive the
//     center's ALIVE among their first alpha, and fails under
//     timeliness-only models, where a δ-timely link need not win the race.
//
// # Mapping from the paper's pseudocode
//
// Paper variable -> code field (Node):
//
//	s_rn_i            sRN
//	r_rn_i            rRN
//	susp_level_i[k]   suspLevel[k]
//	rec_from_i[rn]    win.Get(rn).Rec       (bitset, initialized to {i})
//	suspicions_i[rn]  win.Get(rn).Susp      (bitset.Tally: per-target counts
//	                                         of distinct reporters, bit-sliced
//	                                         and saturating at Alpha, the only
//	                                         value lines 16 and "*" ask about)
//	timer_i           the round timer (TimerRound) plus timerExpired
//
// Task T1 (lines 1-3) is driven by the periodic TimerAlive; task T2's three
// handlers map to OnMessage(Alive), the guard evaluation in checkGuard
// (lines 8-12), and OnMessage(Suspicion) (lines 13-18). leader() (lines
// 19-21) is the Leader method.
//
// # Deviations (all mechanical, none semantic)
//
//   - Process ids are 0-based; round numbers start at 1 as in the paper.
//   - The timer value "max susp_level" is scaled by Config.TimeoutUnit to
//     convert the paper's abstract time units into simulator time, and is
//     floored at 1µs to exclude Zeno executions in which a zero timeout
//     lets infinitely many receiving rounds complete in zero time. The
//     paper implicitly excludes these because processes take a bounded
//     number of steps per time unit (§2.1).
//   - SUSPICION processing is deduplicated per (round, sender). The model's
//     links never duplicate, so this is pure hardening with no behavioural
//     effect in any modeled execution.
//   - suspicions/rec_from rows are unbounded in the paper; Config.Retention
//     optionally prunes rows below r_rn − Retention − the window test's
//     reach, to run very long simulations in bounded memory while r_rn
//     advances and the reach stays bounded (0 disables pruning, the
//     default). A stranded r_rn, a growing F or, under Figure 2, a crashed
//     process's rising level keeps rows growing (see Config.Retention). No later message can read those rows unless
//     a SUSPICION lags r_rn by more than Retention, or a level grows past
//     the max it was pruned under; Metrics.BelowHorizon counts both, and
//     while it reads 0 the run is identical to unbounded history. Restarts
//     are outside the equivalence: a restarted member lags by its downtime
//     (ROADMAP.md, "Ω across restarts").
//   - Config.JoinCurrentRound (off by default, so absent from the base
//     algorithm) lets a churned-back incarnation adopt its peers' round
//     frontier from the first message it receives. The paper starts all
//     processes "at the beginning"; a process rebooting mid-run is outside
//     its model, and without the jump the rebooted sender's rounds would be
//     permanently misaligned with everyone's round guards.
//
// # Hot-path storage: ring windows and pooled payloads
//
// The round-indexed bookkeeping (rec_from, suspicions, the SUSPICION dedup
// set) lives in internal/rounds: a ring of per-round row pointers indexed
// by rn mod W (Config.WindowSlots), plus an exact overflow map for rounds
// displaced from the ring. A slot takes a row from a free list when a round
// first claims it and recycles its bitset and tally in place as rounds
// advance, so a deep ring costs one pointer per slot until rounds
// fill it. The paper's own structure makes the ring
// sufficient in steady state — the window test of line "*" only consults
// rounds within susp_level[k] + F(rn) of the message's round, and Theorem 4
// bounds susp_level — so map operations and row allocations happen only
// under pathological round skew (counted in Metrics.WindowEvictions /
// WindowOverflow), where lookups degrade to map operations but the node
// observes exactly what a wider ring would (window_test.go forces the
// collisions with a 4-slot ring).
//
// Outgoing ALIVE and SUSPICION payloads (with their susp_level snapshots
// and suspect bitsets) come from per-node pools (internal/wire); the
// transport reference-counts each payload and returns it to its pool when
// the last recipient's delivery completes. A steady-state node therefore
// allocates nothing per message in either direction.
//
// # Execution substrate
//
// On the simulator, every Node callback (Start, OnMessage, OnTimer) runs as
// a typed event on internal/sim's allocation-free arena scheduler, and every
// message rides a pooled internal/netsim envelope that is recycled the
// moment delivery completes. Nodes never see envelopes — only payloads — so
// the only contract this imposes here is the existing one: messages are
// immutable once sent and passed by pointer without copying (see
// internal/wire). Determinism is unchanged: callback order remains a pure
// function of (virtual time, schedule order) and the run's seed.
package core
