package star

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
// CapChurn (crash/restart of hosted members on wall-clock timers),
// CapRecovery (journal snapshots and restores) and CapChaos (WithChaos
// timelines) — and deliberately neither CapDeterminism (kernel scheduling
// and real sockets), CapEventBudget (execution is not metered in simulator
// events; New rejects MaxEvents) nor CapSpreadCheck. Socket-layer faults —
// loss, one-way partitions, jitter, slow members — are WithChaos schedule
// steps instead of the simulator's assumption machinery: each process of a
// multi-process cluster fires its copy of the schedule over its own
// outbound links, and a refused frame counts as Dropped in Report().Net.
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

// netTransport implements Transport over internal/tcpnet.
type netTransport struct {
	addrs []string
	local []int // nil = all members hosted here
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
