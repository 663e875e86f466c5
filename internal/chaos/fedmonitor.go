package chaos

import (
	"fmt"
	"time"
)

// Federation rule names (stable strings, reported in violations).
const (
	// RuleGlobalLiveness: a majority-of-shards healthy component held for
	// longer than the bound without the federation electing a global
	// leader.
	RuleGlobalLiveness = "global-liveness"
	// RuleStaleGlobal: the standing global leader named a shard whose own
	// election had settled on a different leader for longer than the
	// bound (the handoff pipeline wedged).
	RuleStaleGlobal = "stale-global"
)

// FedMonitor checks the two invariants a federation owes its users, once
// per epoch sample:
//
//  1. Liveness: while a majority of shards are healthy (their own election
//     agreed on a leader), the federation must elect a global leader
//     within the bound.
//
//  2. Consistency: a standing global leader must not name a shard whose
//     own agreed leader has differed from the committed delegate for
//     longer than the bound — handoffs may lag, but not wedge.
//
// Each rule's deadline opens at the first bad sample and closes (re-arms)
// when the condition clears, so it fires once per continuous breach window.
//
// FedMonitor is not safe for concurrent use; the federation serializes
// access.
type FedMonitor struct {
	violationLog
	shards   int
	bound    time.Duration
	liveness deadline
	stale    deadline
}

// NewFedMonitor returns a monitor for a federation of the given width;
// bound is how long either bad condition may persist.
func NewFedMonitor(shards int, bound time.Duration) *FedMonitor {
	return &FedMonitor{shards: shards, bound: bound}
}

// OnSample feeds one epoch observation: the per-shard agreed leaders
// (shardLeaders[s] is -1 while shard s's own election is unsettled) and
// the sampled global leader (flat id, -1 when absent). shardSize converts
// the global flat id back to (shard, local) for the consistency rule.
func (m *FedMonitor) OnSample(at time.Duration, shardLeaders []int, global, shardSize int) {
	healthy := 0
	for _, l := range shardLeaders {
		if l >= 0 {
			healthy++
		}
	}
	if healthy > m.shards/2 && global < 0 {
		m.liveness.begin(at)
		if m.liveness.expired(at, m.bound) {
			m.add(at, RuleGlobalLiveness,
				fmt.Sprintf("%d/%d shards healthy since %v with no global leader", healthy, m.shards, m.liveness.since))
		}
	} else {
		m.liveness.end()
	}

	if global >= 0 && shardSize > 0 && global/shardSize < len(shardLeaders) {
		shard, local := global/shardSize, global%shardSize
		if sl := shardLeaders[shard]; sl >= 0 && sl != local {
			m.stale.begin(at)
			if m.stale.expired(at, m.bound) {
				m.add(at, RuleStaleGlobal,
					fmt.Sprintf("global leader %d (shard %d local %d) but shard elected %d since %v",
						global, shard, local, sl, m.stale.since))
			}
			return
		}
	}
	m.stale.end()
}
