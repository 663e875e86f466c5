package chaos

import (
	"slices"
	"sync"
	"time"

	"repro/internal/proc"
	"repro/internal/sim"
)

// Faults is the mutable link-fault state a schedule drives: a directed cut
// matrix, a uniform loss probability, a jitter range, and per-process slow
// penalties. One value serves every transport — it is a proc.LinkFault, the
// seam netsim, runtime and tcpnet all consult — so the same schedule
// produces the same admit/delay decisions everywhere. Loss and jitter draws come from a seeded
// deterministic stream; on the simulated transport, where the draw order is
// itself deterministic, that makes whole runs replayable.
//
// Mutators and queries lock internally: transports call Admit/Delay from
// their send paths while the orchestrator mutates from timer callbacks. The
// Monitor reads the cut matrix and the noise knobs under the same lock
// (taken after its own) and never draws from the stream; Faults calls out
// to nothing.
type Faults struct {
	mu   sync.Mutex
	n    int
	rng  *sim.Rand
	cut  []bool        // [from*n+to]: directed link severed
	loss float64       // uniform drop probability for admitted sends
	jlo  time.Duration // jitter range; jhi == 0 means off
	jhi  time.Duration
	slow []time.Duration // per-process extra delay (sender or receiver)
}

// NewFaults returns fault state for an n-process cluster with every link
// clean. The seed feeds the loss/jitter draw stream.
func NewFaults(n int, seed uint64) *Faults {
	return &Faults{
		n:    n,
		rng:  sim.NewRand(seed),
		cut:  make([]bool, n*n),
		slow: make([]time.Duration, n),
	}
}

// Admit reports whether a message from -> to may be sent right now: false if
// the directed link is cut or the loss draw eats it. Refused messages are
// dropped by the transport (counted as sent and dropped, like any faulted
// link). Self-links are never cut but do see loss, matching the transports'
// treatment of loopback as an ordinary link.
func (f *Faults) Admit(from, to proc.ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from != to && f.cut[from*f.n+to] {
		return false
	}
	if f.loss > 0 && f.rng.Bool(f.loss) {
		return false
	}
	return true
}

// Delay returns the extra latency for an admitted message from -> to: a
// jitter draw plus the slow-node penalties of both endpoints.
func (f *Faults) Delay(from, to proc.ID) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.slow[from]
	if to != from {
		d += f.slow[to]
	}
	if f.jhi > 0 {
		d += f.rng.Duration(f.jlo, f.jhi)
	}
	return d
}

// Cut severs the directed link from -> to.
func (f *Faults) Cut(from, to int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from != to && from >= 0 && from < f.n && to >= 0 && to < f.n {
		f.cut[from*f.n+to] = true
	}
}

// HealLink restores the directed link from -> to.
func (f *Faults) HealLink(from, to int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from >= 0 && from < f.n && to >= 0 && to < f.n {
		f.cut[from*f.n+to] = false
	}
}

// HealAll removes every cut (partitions included).
func (f *Faults) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.cut {
		f.cut[i] = false
	}
}

// PartitionGroups cuts every link between processes in different groups,
// both directions. Processes in no group form one implicit extra group.
// Existing cuts are left in place (cuts compose; HealAll clears).
func (f *Faults) PartitionGroups(groups [][]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	comp := partitionComponents(f.n, groups)
	for a := 0; a < f.n; a++ {
		for b := 0; b < f.n; b++ {
			if a != b && comp[a] != comp[b] {
				f.cut[a*f.n+b] = true
			}
		}
	}
}

// partitionComponents maps each process to its group index; unlisted
// processes share the extra group len(groups). Out-of-range ids are ignored
// (Validate rejects them up front).
func partitionComponents(n int, groups [][]int) []int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = len(groups)
	}
	for gi, g := range groups {
		for _, id := range g {
			if id >= 0 && id < n {
				comp[id] = gi
			}
		}
	}
	return comp
}

// SetLoss sets the uniform drop probability (0 disables).
func (f *Faults) SetLoss(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.loss = p
}

// SetJitter sets the added-latency range (hi == 0 disables).
func (f *Faults) SetJitter(lo, hi time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	f.jlo, f.jhi = lo, hi
}

// SetSlow sets the extra per-message delay charged to every message sent or
// received by id (0 disables).
func (f *Faults) SetSlow(id int, extra time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id >= 0 && id < f.n {
		if extra < 0 {
			extra = 0
		}
		f.slow[id] = extra
	}
}

// noisyLocked reports whether loss, jitter or a slow node is active.
// Callers hold f.mu.
func (f *Faults) noisyLocked() bool {
	if f.loss > 0 || f.jhi > 0 {
		return true
	}
	for _, d := range f.slow {
		if d > 0 {
			return true
		}
	}
	return false
}

// cutLocked reports whether the directed link from -> to is severed.
// Callers hold f.mu.
func (f *Faults) cutLocked(from, to int) bool { return f.cut[from*f.n+to] }

// partitionedLocked reports whether any link is severed. Callers hold f.mu.
func (f *Faults) partitionedLocked() bool { return slices.Contains(f.cut, true) }

var _ proc.LinkFault = (*Faults)(nil)
