// Package wire defines the message types exchanged by every protocol in this
// repository.
//
// The paper's leader algorithms exchange two message kinds:
//
//   - ALIVE(rn, susp_level): sent regularly by task T1 (Figure 1, lines 1-3);
//     rn is the sending round and susp_level the gossiped suspicion-level
//     array.
//   - SUSPICION(rn, suspects): sent when the receiving-round guard fires
//     (Figure 1, line 10); suspects is the set of processes not heard from in
//     receiving round rn.
//
// The heartbeat baseline and the consensus layer add further kinds, each
// with an explicit integer tag (Kind).
//
// The simulated and goroutine transports pass message values by pointer
// without copying; messages are therefore immutable by convention once sent.
// internal/netwire is the only codec: it frames a message as [kind][body]
// for a byte stream, and every type's Size returns the exact length of that
// encoding, so every transport accounts real wire bytes without serializing
// on the hot path. An int64 vector (Alive.SuspLevel) travels as a frame of
// reference, one base plus a w-bit offset per entry (Span); by Lemma 8 a
// Figure 3 ALIVE is a base plus an n-bit set.
//
// A pooled Alive can carry that set for its receivers too, as a summary in
// SuspLevel's slack past its length (see Alive). The summary never reaches
// the wire, and a decoded Alive carries none.
package wire

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

// Kind enumerates message types on the wire.
type Kind uint8

// Message kinds. Explicit values: these form the wire format.
const (
	KindAlive Kind = iota + 1
	KindSuspicion
	KindHeartbeat
	// Bytes 4-6 are reserved: they tagged ACCUSATION, QUERY and RESPONSE,
	// kinds no protocol here sends. Skipping them keeps every live kind's
	// wire byte.
	_
	_
	_
	KindPrepare
	KindPromise
	KindAccept
	KindAccepted
	KindDecide
	KindMux
	KindABCast

	// KindCount is one past the largest defined kind; fixed-size per-kind
	// counter arrays (host.Stats) are indexed by Kind and sized by it.
	KindCount
)

// String names the kind. A switch rather than a package-level map: String
// runs in metrics formatting and trace paths, and the map cost (hashing,
// pointer-chasing, a live heap object) buys nothing over a jump table.
func (k Kind) String() string {
	switch k {
	case KindAlive:
		return "ALIVE"
	case KindSuspicion:
		return "SUSPICION"
	case KindHeartbeat:
		return "HEARTBEAT"
	case KindPrepare:
		return "PREPARE"
	case KindPromise:
		return "PROMISE"
	case KindAccept:
		return "ACCEPT"
	case KindAccepted:
		return "ACCEPTED"
	case KindDecide:
		return "DECIDE"
	case KindMux:
		return "MUX"
	case KindABCast:
		return "ABCAST"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is implemented by every payload that travels on a link.
type Message interface {
	// Kind identifies the message type.
	Kind() Kind
	// Size returns the encoded size in bytes (for metrics).
	Size() int
}

// Alive is the paper's ALIVE(rn, susp_level) message (Figure 1, line 3).
//
// A pooled Alive can also carry a summary of SuspLevel for the receiver's
// merge (SetNarrow, Narrow). It lives in the slice's own slack, so the
// struct stays 64 B: AlivePool.Get allocates SuspLevel with capacity
// n + bitset.WordsFor(n+1), the size class of n entries alone at n=5 and
// n=251, and the words past the length hold the sender's at-minimum set,
// bit n marking it valid. Size and netwire read SuspLevel's length only.
type Alive struct {
	RN        int64   // sending round number s_rn
	SuspLevel []int64 // gossiped susp_level array, one entry per process
	ref
}

// summary returns the words past SuspLevel's length that hold the summary
// (the set's n bits, then the valid bit n), or nil when m has no room for
// one: it was built by hand, or its SuspLevel was not sized by Get.
func (m *Alive) summary() []int64 {
	n := len(m.SuspLevel)
	if w := m.SuspLevel[n:cap(m.SuspLevel)]; m.home != nil && len(w) > n/64 { // WordsFor(n+1) words
		return w
	}
	return nil
}

// SetNarrow attaches the summary of a vector that Lemma 8 keeps narrow:
// atMin, over the same n processes, holds exactly the entries of SuspLevel
// at its minimum, and every other entry is that minimum plus one. The
// sender vouches for both; Narrow hands the set back unchecked. Only an Alive
// from AlivePool.Get has room for a summary; SetNarrow panics on any other.
func (m *Alive) SetNarrow(atMin *bitset.Set) {
	w := m.summary()
	for i := range atMin.WordCount() {
		w[i] = int64(atMin.Word(i))
	}
	n := len(m.SuspLevel)
	w[n/64] |= 1 << (n % 64)
}

// Narrow returns the summary SetNarrow attached, the sender's at-minimum
// entries (entry k is bit k%64 of set[k/64]; bit n is the valid bit), or
// nil when m carries none: a hand-built, decoded or freshly recycled Alive.
func (m *Alive) Narrow() (set []int64) {
	n := len(m.SuspLevel)
	if w := m.summary(); w != nil && w[n/64]>>(n%64)&1 != 0 {
		return w
	}
	return nil
}

// Kind implements Message.
func (*Alive) Kind() Kind { return KindAlive }

// Size implements Message.
func (m *Alive) Size() int { return 1 + 8 + packedSize(m.SuspLevel) }

func (m *Alive) String() string { return fmt.Sprintf("ALIVE(%d)", m.RN) }

// Suspicion is the paper's SUSPICION(rn, suspects) message (Figure 1, line
// 10). Suspects is a bit set over process ids.
type Suspicion struct {
	RN       int64
	Suspects *bitset.Set
	ref
}

// Kind implements Message.
func (*Suspicion) Kind() Kind { return KindSuspicion }

// Size implements Message.
func (m *Suspicion) Size() int { return 1 + 8 + 2 + 8*m.Suspects.WordCount() }

func (m *Suspicion) String() string {
	return fmt.Sprintf("SUSPICION(%d,%v)", m.RN, m.Suspects)
}

// Heartbeat is used by the eventual-t-source baseline: a plain "I am alive"
// beacon with a sequence number.
type Heartbeat struct {
	Seq int64
	ref
}

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// Size implements Message.
func (m *Heartbeat) Size() int { return 1 + 8 }

// Span returns the frame of reference of xs: base is min(xs) and w is the
// bit width of max(xs)−min(xs), taken with wrapping subtraction, so
// 0 ≤ w ≤ 64 for every input. An empty xs has base 0 and w 0.
func Span(xs []int64) (base int64, w int) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, bits.Len64(uint64(hi) - uint64(lo))
}

// packedSize is the encoded length of xs as a packed vector:
// [n u16][base i64][w u8], then n offsets x−base of w bits each, padded to
// a whole byte (base and w from Span). It computes nothing it keeps: the
// payload is shared by many readers and written without any seal step.
func packedSize(xs []int64) int {
	_, w := Span(xs)
	return 2 + 8 + 1 + (len(xs)*w+7)/8
}

// Ballot identifies a consensus attempt; it totally orders attempts across
// processes as (Counter, Proposer) lexicographically.
type Ballot struct {
	Counter  int64
	Proposer int32
}

// Less reports whether b orders strictly before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Counter != o.Counter {
		return b.Counter < o.Counter
	}
	return b.Proposer < o.Proposer
}

// IsZero reports whether b is the zero ballot (no attempt).
func (b Ballot) IsZero() bool { return b.Counter == 0 && b.Proposer == 0 }

func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Counter, b.Proposer) }

// Prepare begins phase 1 of a consensus ballot (read/own the ballot).
type Prepare struct {
	Instance int64
	Ballot   Ballot
	ref
}

// Kind implements Message.
func (*Prepare) Kind() Kind { return KindPrepare }

// Size implements Message.
func (m *Prepare) Size() int { return 1 + 8 + 12 }

// Promise answers Prepare: the acceptor promises not to accept lower ballots
// and reports its most recently accepted (ballot, value), if any.
type Promise struct {
	Instance   int64
	Ballot     Ballot
	AcceptedAt Ballot // zero if nothing accepted yet
	Value      int64
	HasValue   bool
	NACK       bool // set when the acceptor is promised to a higher ballot
	ref
}

// Kind implements Message.
func (*Promise) Kind() Kind { return KindPromise }

// Size implements Message.
func (m *Promise) Size() int { return 1 + 8 + 12 + 12 + 8 + 1 + 1 }

// Accept begins phase 2: ask acceptors to accept value at ballot.
type Accept struct {
	Instance int64
	Ballot   Ballot
	Value    int64
	ref
}

// Kind implements Message.
func (*Accept) Kind() Kind { return KindAccept }

// Size implements Message.
func (m *Accept) Size() int { return 1 + 8 + 12 + 8 }

// Accepted acknowledges an Accept (or NACKs it).
type Accepted struct {
	Instance int64
	Ballot   Ballot
	NACK     bool
	ref
}

// Kind implements Message.
func (*Accepted) Kind() Kind { return KindAccepted }

// Size implements Message.
func (m *Accepted) Size() int { return 1 + 8 + 12 + 1 }

// Decide announces a decided value for an instance (learner broadcast).
type Decide struct {
	Instance int64
	Value    int64
	ref
}

// Kind implements Message.
func (*Decide) Kind() Kind { return KindDecide }

// Size implements Message.
func (m *Decide) Size() int { return 1 + 8 + 8 }

// Mux wraps an inner message with a lane tag so several protocol nodes can
// share one transport endpoint (e.g. Ω and consensus co-hosted in a process).
type Mux struct {
	Lane  uint8
	Inner Message
	ref
}

// Kind implements Message.
func (*Mux) Kind() Kind { return KindMux }

// Size implements Message.
func (m *Mux) Size() int { return 1 + 1 + m.Inner.Size() }

// ABCast carries an application payload for total-order broadcast: the
// sender asks the sequencing layer to order Payload.
type ABCast struct {
	Sender  int32
	LocalID int64 // sender-local unique id, used for deduplication
	Payload int64
	ref
}

// Kind implements Message.
func (*ABCast) Kind() Kind { return KindABCast }

// Size implements Message.
func (m *ABCast) Size() int { return 1 + 4 + 8 + 8 }

// Verify interface compliance at compile time.
var (
	_ Message = (*Alive)(nil)
	_ Message = (*Suspicion)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*Prepare)(nil)
	_ Message = (*Promise)(nil)
	_ Message = (*Accept)(nil)
	_ Message = (*Accepted)(nil)
	_ Message = (*Decide)(nil)
	_ Message = (*Mux)(nil)
	_ Message = (*ABCast)(nil)
)
