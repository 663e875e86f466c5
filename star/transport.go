package star

import (
	"strings"
	"time"
)

// Capability is a bit set declaring what a Transport can provide beyond the
// core contract (run the protocols, crash processes, read state). New
// validates the requested options against the selected transport's declared
// capabilities and rejects mismatches with ErrUnsupported naming the missing
// capability — transports declare what they can do; the façade never
// hardcodes per-transport feature checks.
type Capability uint32

const (
	// CapNetStats: the transport taps its links, so Report().Net and
	// Metrics().Net carry real traffic counters.
	CapNetStats Capability = 1 << iota
	// CapChurn: crash/restart schedules (Churn, RestartAt)
	// execute — crashed processes can return as fresh incarnations.
	CapChurn
	// CapSpreadCheck: the CheckSpread option's per-delivery Lemma 8
	// verification is available.
	CapSpreadCheck
	// CapEventBudget: execution is metered in simulator events, so the
	// MaxEvents budget can be enforced (and Metrics().Events is nonzero).
	CapEventBudget
	// CapDeterminism: a run is a pure function of (options, seed). Purely
	// informational — no option requires it — but callers can branch on it
	// (the harness's regression suites only make sense with it).
	CapDeterminism
	// CapRecovery: the transport's restart path can restore a journaled
	// snapshot into the new incarnation (WithRecovery), and its clock runs
	// the periodic snapshot cadence.
	CapRecovery
	// CapChaos: the transport can execute a WithChaos fault timeline — link
	// cuts, loss/jitter/slow-node windows, kill/restart steps and journal
	// faults fired at schedule offsets on the transport's clock, with the
	// invariant monitor fed from the collection tick.
	CapChaos
)

// capNames, in bit order.
var capNames = []string{"NetStats", "Churn", "SpreadCheck", "EventBudget", "Determinism", "Recovery", "Chaos"}

// String renders the set like "Churn|NetStats", or "none".
func (c Capability) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	for i, name := range capNames {
		if c&(1<<uint(i)) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "|")
}

// Has reports whether every capability in want is present.
func (c Capability) Has(want Capability) bool { return c&want == want }

// The declared capability sets. The simulator does everything; the live
// transport does everything that does not require virtual time — it counts
// traffic, executes churn on wall clocks and runs spread checks under the
// per-process callback locks, but it cannot replay a schedule (goroutine
// interleaving is real) or meter execution in simulator events. The network
// transport (Network) is the narrowest: real sockets rule out determinism
// and event metering like the live transport, and a possibly multi-process
// cluster additionally rules out the per-delivery spread hook (the check
// needs a cluster-wide view no single process has).
const (
	simCapabilities  = CapNetStats | CapChurn | CapSpreadCheck | CapEventBudget | CapDeterminism | CapRecovery | CapChaos
	liveCapabilities = CapNetStats | CapChurn | CapSpreadCheck | CapRecovery | CapChaos
	netCapabilities  = CapNetStats | CapChurn | CapRecovery | CapChaos
)

// memberHoster is implemented by transports that may host only a subset of
// the cluster's members in this process (the network transport). New builds
// protocol stacks for hosted members only; the accessors report None/nil
// for the rest (observe them from their own process).
type memberHoster interface{ hostsMember(id int) bool }

// Transport selects how a cluster executes: on the deterministic
// discrete-event simulator, live on goroutines with wall-clock timers, or
// over TCP sockets (Network). The same protocol code runs unchanged on all
// three. A Transport is itself an
// Option, so it is passed straight to New:
//
//	star.New(star.N(5), star.Simulated())
//	star.New(star.N(4), star.Live())
type Transport interface {
	Option
	// String names the transport ("sim", "live" or "net").
	String() string
	// Capabilities declares what the transport's engine can provide; New
	// checks requested options against it (ErrUnsupported on mismatch).
	Capabilities() Capability

	// newEngine builds the execution engine (sealed).
	newEngine(c *Cluster) (engine, error)
}

// Simulated returns the deterministic simulator transport (the default):
// virtual time, seeded delays, exact assumption machinery (delay policies,
// order gates, crash/churn schedules). Run advances virtual time and the
// whole run is a pure function of (options, seed).
func Simulated() Transport { return simTransport{} }

// Live returns the goroutine transport: one goroutine per process, channel
// links with seeded random delays drawn from the scenario's base-delay
// range, and wall-clock timers. Run sleeps. The transport is full-featured
// where live semantics permit — its links carry counting taps (real
// NetStats), churn schedules execute on wall-clock timers, and CheckSpread
// runs under the per-process callback locks — but the assumption machinery
// (stars, order gates, adversaries) is simulator-only: a live network is
// plainly asynchronous, and goroutine scheduling keeps runs
// nondeterministic. See Capabilities for the declared split.
func Live() Transport { return liveTransport{} }

type simTransport struct{}

func (simTransport) String() string           { return "sim" }
func (simTransport) Capabilities() Capability { return simCapabilities }
func (t simTransport) apply(c *config) error  { c.transport = t; return nil }
func (t simTransport) newEngine(c *Cluster) (engine, error) {
	return newSimEngine(c)
}

type liveTransport struct{}

func (liveTransport) String() string           { return "live" }
func (liveTransport) Capabilities() Capability { return liveCapabilities }
func (t liveTransport) apply(c *config) error  { c.transport = t; return nil }
func (t liveTransport) newEngine(c *Cluster) (engine, error) {
	return newLiveEngine(c)
}

// engine is the transport-side half of a Cluster: a clock that runs timed
// actions. The members are host.Process values on every transport, and the
// engine hands the cluster each hosted one (Cluster.adopt) when it is built.
// Everything above it is written once in Cluster — the crash and restart
// path through those processes (with its EverCrashed set, churn epoch,
// chaos-monitor notes and events), the scenario and chaos schedules, the
// sampling tick and the journal cadence — so a transport contributes a clock
// and links and nothing else.
type engine interface {
	// run advances the cluster by d (virtual or wall time).
	run(d time.Duration) error
	// now returns elapsed cluster time.
	now() time.Duration
	// at runs f at cluster time t; every runs f each period until close.
	// The simulator fires both inside its event loop; the wall clocks on
	// timers and ticker goroutines that close waits for.
	at(t time.Duration, f func())
	every(period time.Duration, f func())
	// events returns the number of simulated events executed (0 without
	// CapEventBudget).
	events() uint64
	// netStats returns transport traffic counters (CapNetStats).
	netStats() NetStats
	// close tears the engine down; must be idempotent.
	close() error
}
