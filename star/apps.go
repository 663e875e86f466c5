package star

import "fmt"

// Delivery is one totally-ordered atomic-broadcast delivery.
type Delivery struct {
	// Slot is the consensus slot that sequenced the message.
	Slot int64
	// Sender is the broadcasting process; Payload its value.
	Sender  int
	Payload int64
}

// Propose submits value for the given consensus instance at process p.
// Requires WithConsensus (or WithAtomicBroadcast). Consensus is
// leader-driven and indulgent: it is safe always and terminates once the
// eventual leader holds a proposal (Theorem 5 needs t < n/2).
func (c *Cluster) Propose(p int, instance, value int64) error {
	if p < 0 || p >= c.n {
		return fmt.Errorf("%w: %d", ErrBadProcess, p)
	}
	if !c.cfg.consensusEnabled {
		return fmt.Errorf("%w: WithConsensus", ErrNoApp)
	}
	if c.down(p) {
		return nil // a crashed process proposes nothing
	}
	// App-lane slots, like all protocol tables, are read under the process
	// lock: live churn rebuilds them from a restart timer goroutine.
	c.lock(p)
	defer c.unlock(p)
	if cons := c.conss[p]; cons != nil {
		cons.Propose(instance, value)
	}
	return nil
}

// Decided returns process p's decision for the given consensus instance,
// if it has learned one.
func (c *Cluster) Decided(p int, instance int64) (int64, bool) {
	if p < 0 || p >= c.n || !c.cfg.consensusEnabled {
		return 0, false
	}
	c.lock(p)
	defer c.unlock(p)
	cons := c.conss[p]
	if cons == nil {
		return 0, false
	}
	return cons.Decided(instance)
}

// Ballots returns the total number of consensus ballots started across all
// processes (an effort metric; retries under leader churn raise it).
func (c *Cluster) Ballots() uint64 {
	var total uint64
	for p := 0; p < c.n; p++ {
		c.lock(p)
		if cons := c.conss[p]; cons != nil {
			total += cons.Ballots
		}
		c.unlock(p)
	}
	return total
}

// Broadcast submits payload to the total-order broadcast at process p.
// Requires WithAtomicBroadcast. Every correct process delivers the same
// payloads in the same order (observed via the OnDeliver callback or
// Deliveries).
func (c *Cluster) Broadcast(p int, payload int64) error {
	if p < 0 || p >= c.n {
		return fmt.Errorf("%w: %d", ErrBadProcess, p)
	}
	if !c.cfg.abcastEnabled {
		return fmt.Errorf("%w: WithAtomicBroadcast", ErrNoApp)
	}
	if c.down(p) {
		return nil
	}
	c.lock(p)
	defer c.unlock(p)
	if ab := c.abs[p]; ab != nil {
		ab.Broadcast(payload)
	}
	return nil
}

// Deliveries returns process p's ordered delivery log (a copy).
func (c *Cluster) Deliveries(p int) []Delivery {
	if p < 0 || p >= c.n || !c.cfg.abcastEnabled {
		return nil
	}
	c.lock(p)
	defer c.unlock(p)
	ab := c.abs[p]
	if ab == nil {
		return nil
	}
	log := ab.Log()
	out := make([]Delivery, len(log))
	for i, d := range log {
		out[i] = Delivery{Slot: d.Slot, Sender: d.Sender, Payload: d.Payload}
	}
	return out
}
