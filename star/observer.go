package star

import "time"

// EventKind is a bitmask selecting event classes for Observe.
type EventKind uint32

// The event classes.
const (
	// EventLeaderChange fires when a process's leader estimate differs
	// from the previous observation of that process (sampled at
	// SampleEvery granularity). Proc is the observing process, Leader the
	// new estimate.
	EventLeaderChange EventKind = 1 << iota
	// EventRoundAdvance fires when a process's receiving round has
	// advanced since the previous observation (sampled). Proc is the
	// process, Round the receiving round reached.
	EventRoundAdvance
	// EventSample fires once per sampling tick, after any per-process
	// events of that tick. Proc is None; observers typically read
	// cluster state (Leaders, SuspLevel, Metrics) from the callback.
	EventSample
	// EventCrash fires when a scheduled or requested crash takes effect.
	EventCrash
	// EventRestart fires when a churned process returns as a fresh
	// incarnation. Proc is the process.
	EventRestart
	// EventDecide fires on every consensus decision (WithConsensus).
	// Proc is the deciding process, Round the instance number. It is
	// emitted inside the deciding process's callback (see Observe).
	EventDecide
	// EventRecovery fires when a restarted incarnation resolved its
	// recovery (WithRecovery), immediately before that restart's
	// EventRestart. Proc is the process; Round is the restored receiving
	// round (0 when the journal had nothing and the incarnation fell back
	// to the fresh-start + JoinCurrentRound path); Err carries the typed
	// failure (wrapping ErrCorruptJournal) when the journal was damaged.
	EventRecovery
	// EventGlobalLeader fires when a federation's leader-of-leaders
	// changes (Federation runs only; see FedObserve). Proc is the leading
	// shard (None when the global leader was lost), Leader the new global
	// leader as a flat process id (shard*shardSize + local; None on loss).
	EventGlobalLeader
	// EventGlobalDecide fires when a federation's global lane commits one
	// entry to the global total order (Federation runs with FedAppLanes
	// only). Proc is the submitting origin as a flat process id, Round the
	// entry's global sequence number.
	EventGlobalDecide
	// EventMigrate fires when a committed cross-shard migration executes
	// (Federation.Migrate). Proc is the migrating process's source flat
	// id, Leader the flat id of the destination slot it rejoined as.
	EventMigrate

	// EventAll selects every event class.
	EventAll EventKind = 1<<iota - 1
)

// None is the sentinel "no process" value used in leader estimates and
// events (a crashed process has no estimate; cluster-wide events have no
// process).
const None = -1

// Event is one observation from the cluster's event stream. Which fields
// are meaningful depends on Kind; unused fields are zero.
type Event struct {
	// At is the cluster time of the observation: virtual time on the
	// simulated transport, elapsed wall time on the live one.
	At time.Duration
	// Kind is the event class (exactly one bit).
	Kind EventKind
	// Proc is the process the event concerns, or None.
	Proc int
	// Leader is the new leader estimate (EventLeaderChange).
	Leader int
	// Round is the receiving round (EventRoundAdvance), the consensus
	// instance (EventDecide), or the restored receiving round
	// (EventRecovery; 0 on fallback).
	Round int64
	// Err is the typed failure behind a degraded event (EventRecovery
	// with a damaged journal: wraps ErrCorruptJournal). Nil otherwise.
	Err error
}
