package star

import (
	"time"

	"repro/internal/chaos"
)

// Network returns the TCP socket transport: the protocols run over real
// kernel sockets, one listener plus per-peer reconnecting connections per
// member, with every message framed by the netwire codec. addrs lists every
// member's listen address, in member-id order; len(addrs) must equal N.
//
//	// One process, five listeners on loopback:
//	c, err := star.New(star.N(5), star.Network([]string{
//	        "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0",
//	        "127.0.0.1:0", "127.0.0.1:0",
//	}))
//
//	// One of five OS processes, hosting member 2 only (cmd/starnet does
//	// exactly this; the other four processes run the same topology with
//	// their own HostMembers):
//	c, err := star.New(star.N(5), star.Network(addrs, star.HostMembers(2)))
//
// A cluster value hosts the members selected by HostMembers (default: all)
// and reaches the rest by dialing their addresses; accessors cover hosted
// members only (remote members read as None/nil — observe them from their
// own process). A hosted member may listen on port 0 (resolved at bind); a
// remote member's port must be explicit.
//
// The transport declares CapNetStats (link taps count real framed bytes),
// CapChurn (crash/restart of hosted members on wall-clock timers) and
// CapRecovery (journal snapshots and restores) — and deliberately neither
// CapDeterminism (kernel scheduling and real sockets), CapEventBudget
// (execution is not metered in simulator events; New rejects MaxEvents) nor
// CapSpreadCheck. Fault injection — loss, one-way partitions, jitter at the
// socket layer — comes from WithLinkPolicy instead of the simulator's
// assumption machinery.
func Network(addrs []string, opts ...NetworkOption) Transport {
	t := &netTransport{addrs: append([]string(nil), addrs...)}
	for _, o := range opts {
		if o != nil {
			o(t)
		}
	}
	return t
}

// NetworkOption configures the Network transport.
type NetworkOption func(*netTransport)

// HostMembers restricts which members this process hosts (default: all of
// them). Every listed id gets a listener, a protocol stack and accessor
// coverage here; the rest are presumed to run elsewhere on the shared
// topology.
func HostMembers(ids ...int) NetworkOption {
	return func(t *netTransport) { t.local = append([]int(nil), ids...) }
}

// WithLinkPolicy installs a fault-injection policy on every outbound link
// of the hosted members. The policy object stays live while the cluster
// runs — turn its knobs mid-run to inject and heal faults.
func WithLinkPolicy(p *LinkPolicy) NetworkOption {
	return func(t *netTransport) { t.policy = p }
}

// LinkPolicy injects socket-layer faults into a Network transport: uniform
// frame loss, per-frame jitter, and one-way link cuts (asymmetric
// partitions — the paper's intermittent connectivity, over real TCP). It is
// the chaos timeline's link-fault state (chaos.Faults), driven by hand. All
// knobs are safe to turn while the cluster runs. A refused frame counts as
// Dropped in Report().Net, exactly like a frame addressed to a crashed
// process.
//
// In a multi-process cluster the policy only governs this process's
// outbound links; inject on each member's own process.
type LinkPolicy struct {
	faults *chaos.Faults
}

// NewLinkPolicy returns a LinkPolicy for an n-member cluster whose loss and
// jitter draws come from a deterministic stream seeded with seed (the loss
// pattern is pinned; the run around it is still real TCP).
func NewLinkPolicy(n int, seed uint64) *LinkPolicy {
	return &LinkPolicy{faults: chaos.NewFaults(n, seed)}
}

// SetLoss sets the independent per-frame drop probability, clamped to
// [0, 1].
func (p *LinkPolicy) SetLoss(prob float64) { p.faults.SetLoss(prob) }

// SetJitter holds every admitted frame back a uniform duration in [lo, hi]
// (hi == 0 disables; an inverted range is clamped to lo).
func (p *LinkPolicy) SetJitter(lo, hi time.Duration) { p.faults.SetJitter(lo, hi) }

// Cut severs the directed link from -> to until Heal (cutting one direction
// only is an asymmetric partition). A member's link to itself is never cut.
func (p *LinkPolicy) Cut(from, to int) { p.faults.Cut(from, to) }

// Heal restores the directed link from -> to.
func (p *LinkPolicy) Heal(from, to int) { p.faults.HealLink(from, to) }

// HealAll removes every cut (loss and jitter are separate knobs).
func (p *LinkPolicy) HealAll() { p.faults.HealAll() }

// netTransport implements Transport over internal/tcpnet.
type netTransport struct {
	addrs  []string
	local  []int // nil = all members hosted here
	policy *LinkPolicy
}

func (t *netTransport) String() string           { return "net" }
func (t *netTransport) Capabilities() Capability { return netCapabilities }
func (t *netTransport) apply(c *config) error    { c.transport = t; return nil }
func (t *netTransport) newEngine(c *Cluster) (engine, error) {
	return newNetEngine(c, t)
}

// hostsMember implements memberHoster.
func (t *netTransport) hostsMember(id int) bool {
	if t.local == nil {
		return true
	}
	for _, l := range t.local {
		if l == id {
			return true
		}
	}
	return false
}
