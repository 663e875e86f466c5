// Package hier holds the transport-free bookkeeping of a two-tier
// (federated) election: shards run the paper's Ω internally, and each
// shard's current leader participates by proxy — a delegate — in a parent
// cluster whose own Ω elects the leader-of-leaders.
//
// The package deliberately knows nothing about clusters, transports or
// schedulers. It provides two small deterministic machines the federation
// façade (star.Federation) drives from its epoch loop:
//
//   - Table: the delegate registry. Every change of a shard's leader is a
//     handoff that advances the shard's delegate incarnation; handoff
//     records delivered through the tier's total-order lane are admitted
//     only when their incarnation is current, so a deposed delegate can
//     never speak for its shard no matter how late its frames arrive.
//
//   - Tracker: the global-leader timeline. Sampled once per federation
//     epoch, it yields the tier-stabilization verdict (when the final
//     leader-of-leaders took hold, and how often it changed).
//
// The federation's invariant rules (global liveness, stale global leader)
// live with every other rule in internal/chaos, as chaos.FedMonitor.
//
// Everything here is pure data manipulation: same call sequence, same
// results, on every transport.
package hier

import "fmt"

// None is the "no process / no leader" sentinel, matching the façade's
// convention.
const None = -1

// Table is the delegate registry of a federation: for each shard, the
// leader the federation last handed the delegate slot to (the issuer view)
// and the leader the tier's total-order lane has committed (the delivered
// view), each tagged with the delegate incarnation that produced it.
//
// The split matters: a handoff is issued the moment the federation observes
// a shard's election settle on a new leader, but it only becomes the
// shard's committed delegate when the corresponding record comes out of the
// tier's atomic broadcast. In between, stale records from superseded
// incarnations may still surface — Deliver rejects them by incarnation.
//
// Table is not safe for concurrent use; the federation serializes access.
type Table struct {
	shards int

	leaders []int    // issuer view: last handed-off leader per shard
	incs    []uint64 // issuer view: current delegate incarnation per shard

	committed []int    // delivered view: last admitted leader per shard
	comIncs   []uint64 // delivered view: incarnation of the admitted record

	handoffs uint64
	rejected uint64
}

// NewTable returns a registry for the given number of shards, all slots
// vacant (leader None, incarnation 0).
func NewTable(shards int) *Table {
	t := &Table{
		shards:    shards,
		leaders:   make([]int, shards),
		incs:      make([]uint64, shards),
		committed: make([]int, shards),
		comIncs:   make([]uint64, shards),
	}
	for i := range t.leaders {
		t.leaders[i] = None
		t.committed[i] = None
	}
	return t
}

// Shards returns the registry width.
func (t *Table) Shards() int { return t.shards }

// Handoff records that shard's election settled on leader and hands the
// delegate slot to it: the shard's incarnation advances and the new
// incarnation is returned — stamp it into the handoff record broadcast on
// the tier lane. Any record carrying an older incarnation is dead from this
// moment on (Deliver will reject it).
func (t *Table) Handoff(shard, leader int) uint64 {
	t.leaders[shard] = leader
	t.incs[shard]++
	t.handoffs++
	return t.incs[shard]
}

// Leader returns the issuer view of shard's delegate (the last handed-off
// leader, None before the first handoff); Incarnation the current delegate
// incarnation.
func (t *Table) Leader(shard int) int         { return t.leaders[shard] }
func (t *Table) Incarnation(shard int) uint64 { return t.incs[shard] }

// Deliver applies one handoff record that came out of the tier's
// total-order lane. It is admitted — committed becomes (leader, inc) —
// exactly when inc is the shard's current incarnation; records from
// superseded incarnations are rejected and counted, which is the mechanism
// that silences deposed delegates. Reports whether the record was admitted.
func (t *Table) Deliver(shard, leader int, inc uint64) bool {
	if shard < 0 || shard >= t.shards || inc != t.incs[shard] {
		t.rejected++
		return false
	}
	t.committed[shard] = leader
	t.comIncs[shard] = inc
	return true
}

// Committed returns the delivered view of shard's delegate: the leader of
// the last admitted record (None before any), with its incarnation.
func (t *Table) Committed(shard int) (leader int, inc uint64) {
	return t.committed[shard], t.comIncs[shard]
}

// Handoffs counts handoffs issued; Rejected counts delivered records that
// were refused for carrying a superseded incarnation.
func (t *Table) Handoffs() uint64 { return t.handoffs }
func (t *Table) Rejected() uint64 { return t.rejected }

// Handoff records ride the tier's int64 atomic-broadcast payloads. The
// layout keeps the value positive and self-identifying:
//
//	bits  0..15  leader (shard-local id)
//	bits 16..31  shard index
//	bits 32..55  incarnation (low 24 bits)
//	bits 56..62  magic (MagicHandoff), so foreign payloads sharing the
//	             lane are recognized and ignored rather than misparsed
const (
	handoffMagic      = MagicHandoff
	handoffMagicShift = MagicShift
	maxShardIndex     = 1<<16 - 1
	maxLeaderID       = 1<<16 - 1
	incMask           = 1<<24 - 1
)

// The federation's lanes multiplex several record kinds over the same
// int64 atomic-broadcast payloads. Every kind claims a distinct magic in
// the top byte (bit 63 stays clear so values remain positive); this
// registry is the single authority, so new kinds cannot collide.
//
//	0x2A  handoff    (this package: EncodeHandoff/DecodeHandoff)
//	0x2B  offer      (fedlane: a member offering a submission upward)
//	0x2C  submit     (fedlane: a delegate forwarding onto the tier lane)
//	0x2D  decide     (fedlane: a tier-ordered decision diffusing down)
const (
	// MagicShift is the bit position of the magic byte in every record.
	MagicShift = 56

	MagicHandoff = 0x2A
	MagicOffer   = 0x2B
	MagicSubmit  = 0x2C
	MagicDecide  = 0x2D
)

// Magic extracts the record-kind magic of a lane payload, or 0 for
// negative values (which no record kind produces).
func Magic(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v >> MagicShift
}

// The encoding's hard limits, exported for the façade's validation.
const (
	// MaxShards is the largest shard count a federation may have.
	MaxShards = maxShardIndex + 1
	// MaxShardSize is the largest per-shard membership (local ids must
	// fit the leader field).
	MaxShardSize = maxLeaderID + 1
)

// EncodeHandoff packs a handoff record. Incarnations are carried modulo
// 2^24 — far above any realistic handoff count per run, so the decoded
// value compares equal to the Table's full counter in every reachable
// execution.
func EncodeHandoff(shard, leader int, inc uint64) (int64, error) {
	if shard < 0 || shard > maxShardIndex {
		return 0, fmt.Errorf("hier: shard %d out of range", shard)
	}
	if leader < 0 || leader > maxLeaderID {
		return 0, fmt.Errorf("hier: leader %d out of range", leader)
	}
	v := int64(handoffMagic)<<handoffMagicShift |
		int64(inc&incMask)<<32 |
		int64(shard)<<16 |
		int64(leader)
	return v, nil
}

// DecodeHandoff unpacks a handoff record. ok is false for payloads that do
// not carry the handoff magic — application traffic sharing the tier lane
// passes through untouched.
func DecodeHandoff(v int64) (shard, leader int, inc uint64, ok bool) {
	if v < 0 || v>>handoffMagicShift != handoffMagic {
		return 0, 0, 0, false
	}
	return int(v >> 16 & maxShardIndex), int(v & maxLeaderID), uint64(v >> 32 & incMask), true
}
