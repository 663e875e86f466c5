package star

import (
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/wire"
)

// LeaderSample is one row of the sampled leader timeline: every process's
// leader estimate at one observation instant (None for crashed processes).
type LeaderSample struct {
	At      time.Duration
	Leaders []int
}

// Stabilization is the eventual-leadership verdict over a run's samples:
// whether, from some point on, every correct process agreed on one correct
// leader through the end of the run.
type Stabilization struct {
	// Stabilized reports whether leadership stabilized within the run.
	Stabilized bool
	// Leader is the agreed leader (when Stabilized).
	Leader int
	// StabilizedAt is the observation time agreement began (when
	// Stabilized).
	StabilizedAt time.Duration
	// LastDisagreement is the last observation time some correct process
	// disagreed (0 if none ever did).
	LastDisagreement time.Duration
	// Changes counts leadership changes over the samples; Samples is the
	// number of observations.
	Changes, Samples int
}

// Report is the domain verdict of a run, computed from the sampled timeline
// and the final protocol state. Everything in it is a pure function of
// (options, seed) on the simulated transport.
type Report struct {
	Stabilization

	// MaxSuspLevel is the largest susp_level entry ever observed; BoundB
	// is the empirical Theorem 4 bound (min over targets of max level);
	// BoundOK is the Theorem 4 verdict max <= B+1. Core algorithms only.
	MaxSuspLevel int64
	BoundB       int64
	BoundOK      bool

	// SpreadViolations counts Lemma 8 violations observed (CheckSpread).
	SpreadViolations uint64

	// RoundsDone is the max receiving rounds completed by any process.
	RoundsDone int64

	// Net is the transport traffic at report time (CapNetStats: real on
	// every transport).
	Net NetStats

	// Recovery summarizes the WithRecovery journal activity (all zero
	// without it).
	Recovery RecoveryStats

	// Chaos carries the WithChaos verdict — applied fault timeline and
	// invariant-monitor violations — and is nil without WithChaos.
	Chaos *ChaosReport

	// Federation carries the two-tier summary on reports produced by
	// Federation.Report (nil on plain cluster reports). The surrounding
	// Report then describes the tier cluster — the delegate election.
	Federation *FederationReport

	// FinalTimeouts and TimeoutsStable describe the round-timeout series
	// (core algorithms): the final value per process, and whether every
	// never-crashed process's series settled.
	FinalTimeouts  []time.Duration
	TimeoutsStable bool

	// LeaderAtEnd is every process's final leader estimate (None when
	// crashed); FinalLevels the final susp_level arrays (core only).
	LeaderAtEnd []int
	FinalLevels [][]int64

	// Timeline is the full sampled leader history.
	Timeline []LeaderSample
}

// StabilizationTime returns the virtual time at which the system stabilized,
// or -1 when it did not.
func (r *Report) StabilizationTime() time.Duration {
	if !r.Stabilized {
		return -1
	}
	return r.StabilizedAt
}

// NetStats aggregates transport-level counters. Every transport reports
// real traffic (CapNetStats): the simulator counts on its event loop, the
// live and network transports through atomic taps on their links — so their
// snapshots are eventually consistent rather than instant-exact.
type NetStats struct {
	Sent      uint64 // messages handed to the transport
	Delivered uint64 // messages delivered to live processes
	Dropped   uint64 // messages addressed to crashed processes
	Bytes     uint64 // encoded size of all sent messages

	// BreakerOpens counts link circuit-breaker opens (Network transport
	// only): a peer that kept refusing dials tripped a writer into
	// fast-drop mode. Always zero on the simulated and live transports,
	// whose links cannot flap.
	BreakerOpens uint64

	// PerKind breaks traffic down by wire-message kind, densest first;
	// kinds with no traffic are omitted.
	PerKind []KindStats
}

// KindStats is one wire-message kind's traffic.
type KindStats struct {
	Kind  string
	Count uint64
	Bytes uint64
}

// RecoveryStats summarizes a cluster's WithRecovery journal activity.
type RecoveryStats struct {
	// Snapshots counts successful journal saves; SaveErrors failed ones.
	Snapshots  uint64
	SaveErrors uint64
	// Restores counts restarted incarnations that resumed from a
	// journaled snapshot; Fallbacks those that found the journal missing
	// or corrupt and degraded to the fresh-start + JoinCurrentRound path.
	Restores  uint64
	Fallbacks uint64
}

// netStatsFrom converts the transports' one counter struct to the public
// mirror. (Over sockets Bytes count real framed bytes — payload plus netwire
// frame overhead — rather than bare payload sizes.)
func netStatsFrom(s host.Stats) NetStats {
	out := NetStats{Sent: s.Sent, Delivered: s.Delivered, Dropped: s.Dropped, Bytes: s.Bytes, BreakerOpens: s.BreakerOpens}
	for kind := wire.Kind(1); kind < wire.KindCount; kind++ {
		if s.ByKind[kind] == 0 {
			continue
		}
		out.PerKind = append(out.PerKind, KindStats{
			Kind:  kind.String(),
			Count: s.ByKind[kind],
			Bytes: s.BytesKind[kind],
		})
	}
	return out
}

// NodeMetrics is one core-algorithm process's counters.
type NodeMetrics struct {
	AliveSent      uint64 // ALIVE broadcasts performed
	SuspicionsSent uint64 // SUSPICION broadcasts performed
	RoundsDone     int64  // receiving rounds completed
	Increments     uint64 // susp_level increments
	MaxSuspLevel   int64  // largest susp_level entry ever held
	MaxTimeout     time.Duration
	LateAlive      uint64 // ALIVEs discarded as late
	DupSuspicion   uint64 // duplicate SUSPICIONs ignored
	// DenseMerges counts ALIVEs merged entry by entry; the rest took the
	// O(n/64) merge a Lemma 8 summary allows (see DESIGN.md §2).
	DenseMerges uint64
	// BelowHorizon counts SUSPICIONs below the retention horizon and
	// window tests reaching below it: 0 means bounded retention saw
	// exactly what unbounded history would have.
	BelowHorizon uint64

	// Ring-window health: rows evicted to the overflow map and lookups
	// served by it. Both 0 while every live round fits the ring.
	WindowEvictions uint64
	WindowOverflow  uint64
}

func nodeMetricsFrom(m core.Metrics) NodeMetrics {
	return NodeMetrics{
		AliveSent:       m.AliveSent,
		SuspicionsSent:  m.SuspicionsSent,
		RoundsDone:      m.RoundsDone,
		Increments:      m.Increments,
		MaxSuspLevel:    m.MaxSuspLevel,
		MaxTimeout:      m.MaxTimeout,
		LateAlive:       m.LateAlive,
		DupSuspicion:    m.DupSuspicion,
		DenseMerges:     m.DenseMerges,
		BelowHorizon:    m.BelowHorizon,
		WindowEvictions: m.WindowEvictions,
		WindowOverflow:  m.WindowOverflow,
	}
}

// Metrics is a point-in-time snapshot of a cluster's mechanical counters
// (as opposed to Report's domain verdicts).
type Metrics struct {
	// Events is the number of simulated events executed so far (0 on
	// transports without CapEventBudget, whose execution is not metered
	// in events).
	Events uint64
	// Net is the transport traffic so far.
	Net NetStats
	// Nodes holds per-process core-algorithm counters (nil for the
	// baselines and on the live transport before any sample).
	Nodes []NodeMetrics
	// GateHeldWinning and GateHeldLose count order-gate interventions
	// (simulated transport; 0 when the scenario has no gate).
	GateHeldWinning, GateHeldLose uint64
	// Elapsed is cumulative wall-clock time spent inside Run.
	Elapsed time.Duration
}

// stabilizationFrom converts the internal checker report.
func stabilizationFrom(r check.StabilizationReport) Stabilization {
	return Stabilization{
		Stabilized:       r.Stabilized,
		Leader:           r.Leader,
		StabilizedAt:     time.Duration(r.StabilizedAt),
		LastDisagreement: time.Duration(r.LastDisagreement),
		Changes:          r.Changes,
		Samples:          r.Samples,
	}
}
