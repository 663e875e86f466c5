package tcpnet

import (
	"sync"
	"time"

	"repro/internal/proc"
	"repro/internal/sim"
)

// Faults is a mutable proc.LinkFault covering the fault menu the paper's
// scenarios need at the socket layer — the analogue of the simulator's delay
// policies: uniform message loss, per-frame jitter, and one-way link cuts
// (asymmetric partitions). All knobs can be turned while the cluster runs —
// that is the point: inject, observe, heal. The zero value admits
// everything instantly; use NewFaults for a seeded loss stream.
type Faults struct {
	mu   sync.Mutex
	rng  *sim.Rand
	loss float64
	lo   time.Duration
	hi   time.Duration
	cuts map[[2]proc.ID]struct{}
}

// NewFaults returns a Faults whose loss decisions draw from a deterministic
// stream seeded with seed. (The cluster around it is still real TCP — the
// seed pins the loss pattern, not the run.)
func NewFaults(seed uint64) *Faults {
	return &Faults{rng: sim.NewRand(seed)}
}

// SetLoss sets the independent per-frame drop probability p in [0, 1].
func (f *Faults) SetLoss(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loss = p
}

// SetJitter makes every admitted frame wait a uniform duration in [lo, hi]
// before reaching the link. lo == hi == 0 disables jitter.
func (f *Faults) SetJitter(lo, hi time.Duration) {
	if hi < lo {
		panic("tcpnet: SetJitter with hi < lo")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lo, f.hi = lo, hi
}

// Cut severs the directed link from -> to: every frame in that direction is
// dropped until Heal. Cutting one direction only is the paper's asymmetric
// partition (to still hears nothing from from; from hears to fine).
func (f *Faults) Cut(from, to proc.ID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cuts == nil {
		f.cuts = make(map[[2]proc.ID]struct{})
	}
	f.cuts[[2]proc.ID{from, to}] = struct{}{}
}

// Heal restores the directed link from -> to.
func (f *Faults) Heal(from, to proc.ID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, [2]proc.ID{from, to})
}

// HealAll removes every cut (loss and jitter are separate knobs).
func (f *Faults) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts = nil
}

// Admit implements proc.LinkFault.
func (f *Faults) Admit(from, to proc.ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, cut := f.cuts[[2]proc.ID{from, to}]; cut {
		return false
	}
	// A zero-value Faults has no stream to draw from; loss needs NewFaults.
	if f.loss > 0 && f.rng != nil && f.rng.Bool(f.loss) {
		return false
	}
	return true
}

// Delay implements proc.LinkFault.
func (f *Faults) Delay(from, to proc.ID) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hi == 0 || f.rng == nil {
		return f.lo
	}
	return f.rng.Duration(f.lo, f.hi)
}

var _ proc.LinkFault = (*Faults)(nil)

// ChainPolicies composes policies: a frame must be admitted by every one,
// and its delays add. Used to overlay a chaos fault timeline on top of a
// user-configured LinkPolicy without either knowing about the other. nil
// entries are skipped; chaining zero or one policy returns what you expect.
func ChainPolicies(ps ...proc.LinkFault) proc.LinkFault {
	chain := make(policyChain, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			chain = append(chain, p)
		}
	}
	if len(chain) == 1 {
		return chain[0]
	}
	return chain
}

type policyChain []proc.LinkFault

func (c policyChain) Admit(from, to proc.ID) bool {
	for _, p := range c {
		if !p.Admit(from, to) {
			return false
		}
	}
	return true
}

func (c policyChain) Delay(from, to proc.ID) time.Duration {
	var d time.Duration
	for _, p := range c {
		d += p.Delay(from, to)
	}
	return d
}
