// Package wire defines the message types exchanged by every protocol in this
// repository, together with a compact binary codec.
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
// The baseline Ω algorithms and the consensus layer add further kinds. All
// messages carry explicit integer tags so that the codec is self-describing,
// and every type implements Size so experiments can report bytes on the wire
// without actually serializing on the hot path.
//
// The simulated and goroutine transports pass message values by pointer
// without copying; messages are therefore immutable by convention once sent.
// The codec exists to (1) pin down a concrete wire format, demonstrating the
// paper's claim that all fields except round numbers are bounded-size, and
// (2) account message bytes in experiments.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Kind enumerates message types on the wire.
type Kind uint8

// Message kinds. Explicit values: these form the wire format.
const (
	KindAlive Kind = iota + 1
	KindSuspicion
	KindHeartbeat
	KindAccusation
	KindQuery
	KindResponse
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
	case KindAccusation:
		return "ACCUSATION"
	case KindQuery:
		return "QUERY"
	case KindResponse:
		return "RESPONSE"
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
type Alive struct {
	RN        int64   // sending round number s_rn
	SuspLevel []int64 // gossiped susp_level array, one entry per process
	ref
}

// Kind implements Message.
func (*Alive) Kind() Kind { return KindAlive }

// Size implements Message.
func (m *Alive) Size() int { return 1 + 8 + 2 + 8*len(m.SuspLevel) }

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

// Accusation is used by the eventual-t-source baseline: the sender accuses
// Target of having missed a heartbeat deadline (counter-based Ω construction
// in the style of Aguilera et al. [2]).
type Accusation struct {
	Target int32
	Epoch  int64 // accusation epoch, so duplicates are idempotent
}

// Kind implements Message.
func (*Accusation) Kind() Kind { return KindAccusation }

// Size implements Message.
func (m *Accusation) Size() int { return 1 + 4 + 8 }

// Query is used by the message-pattern baseline [16]: a round-stamped query
// answered by Response; the first n-t responses are the "winning" ones.
type Query struct {
	Seq int64
}

// Kind implements Message.
func (*Query) Kind() Kind { return KindQuery }

// Size implements Message.
func (m *Query) Size() int { return 1 + 8 }

// Response answers a Query; Counters carries the responder's accusation
// counters so that query-based baselines can gossip state.
type Response struct {
	Seq      int64
	Counters []int64
}

// Kind implements Message.
func (*Response) Kind() Kind { return KindResponse }

// Size implements Message.
func (m *Response) Size() int { return 1 + 8 + 2 + 8*len(m.Counters) }

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
	_ Message = (*Accusation)(nil)
	_ Message = (*Query)(nil)
	_ Message = (*Response)(nil)
	_ Message = (*Prepare)(nil)
	_ Message = (*Promise)(nil)
	_ Message = (*Accept)(nil)
	_ Message = (*Accepted)(nil)
	_ Message = (*Decide)(nil)
	_ Message = (*Mux)(nil)
	_ Message = (*ABCast)(nil)
)

// ErrBadMessage reports a malformed encoded message.
var ErrBadMessage = errors.New("wire: malformed message")

// Marshal encodes m into a self-describing byte slice.
func Marshal(m Message) ([]byte, error) {
	buf := make([]byte, 0, m.Size())
	return appendMessage(buf, m)
}

func appendMessage(buf []byte, m Message) ([]byte, error) {
	buf = append(buf, byte(m.Kind()))
	switch v := m.(type) {
	case *Alive:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.RN))
		buf = appendInt64s(buf, v.SuspLevel)
	case *Suspicion:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.RN))
		buf = binary.BigEndian.AppendUint16(buf, uint16(v.Suspects.Len()))
		for _, w := range v.Suspects.Words() {
			buf = binary.BigEndian.AppendUint64(buf, w)
		}
	case *Heartbeat:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
	case *Accusation:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Target))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Epoch))
	case *Query:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
	case *Response:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
		buf = appendInt64s(buf, v.Counters)
	case *Prepare:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
	case *Promise:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = appendBallot(buf, v.AcceptedAt)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
		buf = append(buf, boolByte(v.HasValue), boolByte(v.NACK))
	case *Accept:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
	case *Accepted:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = append(buf, boolByte(v.NACK))
	case *Decide:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
	case *Mux:
		buf = append(buf, v.Lane)
		var err error
		buf, err = appendMessage(buf, v.Inner)
		if err != nil {
			return nil, err
		}
	case *ABCast:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Sender))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.LocalID))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Payload))
	default:
		return nil, fmt.Errorf("wire: cannot marshal %T: %w", m, ErrBadMessage)
	}
	return buf, nil
}

func appendInt64s(buf []byte, xs []int64) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(xs)))
	for _, x := range xs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(x))
	}
	return buf
}

func appendBallot(buf []byte, b Ballot) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Counter))
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Proposer))
	return buf
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Unmarshal decodes a message previously produced by Marshal.
func Unmarshal(data []byte) (Message, error) {
	m, rest, err := consumeMessage(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes: %w", len(rest), ErrBadMessage)
	}
	return m, nil
}

func consumeMessage(data []byte) (Message, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("wire: empty: %w", ErrBadMessage)
	}
	kind := Kind(data[0])
	r := reader{buf: data[1:]}
	var m Message
	switch kind {
	case KindAlive:
		v := &Alive{RN: r.int64()}
		v.SuspLevel = r.int64s()
		m = v
	case KindSuspicion:
		v := &Suspicion{RN: r.int64()}
		n := int(r.uint16())
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = r.uint64()
		}
		if r.err == nil {
			v.Suspects = bitset.New(n)
			v.Suspects.SetWords(words)
		}
		m = v
	case KindHeartbeat:
		m = &Heartbeat{Seq: r.int64()}
	case KindAccusation:
		m = &Accusation{Target: int32(r.uint32()), Epoch: r.int64()}
	case KindQuery:
		m = &Query{Seq: r.int64()}
	case KindResponse:
		v := &Response{Seq: r.int64()}
		v.Counters = r.int64s()
		m = v
	case KindPrepare:
		m = &Prepare{Instance: r.int64(), Ballot: r.ballot()}
	case KindPromise:
		v := &Promise{Instance: r.int64(), Ballot: r.ballot(), AcceptedAt: r.ballot()}
		v.Value = r.int64()
		v.HasValue = r.bool()
		v.NACK = r.bool()
		m = v
	case KindAccept:
		m = &Accept{Instance: r.int64(), Ballot: r.ballot(), Value: r.int64()}
	case KindAccepted:
		m = &Accepted{Instance: r.int64(), Ballot: r.ballot(), NACK: r.bool()}
	case KindDecide:
		m = &Decide{Instance: r.int64(), Value: r.int64()}
	case KindMux:
		lane := r.byte()
		if r.err != nil {
			return nil, nil, r.err
		}
		inner, rest, err := consumeMessage(r.buf)
		if err != nil {
			return nil, nil, err
		}
		return &Mux{Lane: lane, Inner: inner}, rest, nil
	case KindABCast:
		m = &ABCast{Sender: int32(r.uint32()), LocalID: r.int64(), Payload: r.int64()}
	default:
		return nil, nil, fmt.Errorf("wire: unknown kind %d: %w", kind, ErrBadMessage)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return m, r.buf, nil
}

// reader is a cursor over an encoded message with sticky error handling.
type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("wire: truncated: %w", ErrBadMessage)
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) int64() int64 { return int64(r.uint64()) }

func (r *reader) int64s() []int64 {
	n := int(r.uint16())
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.int64()
	}
	return out
}

func (r *reader) ballot() Ballot {
	return Ballot{Counter: r.int64(), Proposer: int32(r.uint32())}
}
