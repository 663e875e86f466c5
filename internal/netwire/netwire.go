// Package netwire is the network wire codec: it gives every internal/wire
// message kind a length-prefixed binary frame so the protocols can run over
// a real byte stream (internal/tcpnet) instead of passing pointers through
// an in-memory transport.
//
// Frame layout (all integers big-endian):
//
//	+----------------+---------+--------+----------------------+
//	| length uint32  | version | kind   | body (kind-specific) |
//	+----------------+---------+--------+----------------------+
//
// The length prefix covers everything after itself (version + kind + body),
// must be at least 2 and at most MaxFrame. The version byte is checked on
// decode: peers speaking a different netwire version are rejected with
// ErrVersion (the compat rule is deliberately blunt — any layout change bumps
// Version, and mixed-version clusters are refused rather than half-decoded;
// rolling upgrades are a higher-layer concern this repository does not have).
// The kind byte is wire.Kind; the body encodings are chosen so that the
// [kind][body] length equals wire.Message.Size() exactly, which keeps the
// transports' byte accounting (NetStats.Bytes) equal to real bytes framed.
//
// Fields are fixed-width big-endian integers, bools are one 0/1 byte and a
// Suspicion set is [universe u16] plus its 64-bit words. An int64 vector
// (Alive.SuspLevel, Response.Counters) is packed as a frame of reference:
//
//	[n u16][base i64][w u8][n offsets v−base, w bits each, MSB-first]
//
// with base = min(v), w = the bit width of max−min (wire.Span) and the last
// byte zero-padded. A Figure 3 ALIVE has w ≤ 1 (Lemma 8), so its vector is
// one base plus an n-bit set; the encoding is lossless for every vector.
// Counts above 65 535 do not fit their u16 and fail to encode.
//
// Encoding appends into a caller-owned buffer (AppendFrame) and decoding
// draws payloads from caller-owned pools (Pools.Decode), so both directions
// are allocation-free on the hot path: the encoder reuses its buffer, the
// decoder reuses recycled wire payloads and resizes their slices/bitsets
// only when the cluster size changes. A Pools value is single-owner like
// every wire pool — one per connection reader, never shared.
//
// Every count is checked before the decoder sizes anything by it: against
// the bytes it needs, and against Pools.MaxEntries. The second check is
// what bounds a width-0 vector, which needs no offset bytes at all.
package netwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/wire"
)

const (
	// Version is the netwire protocol version; bump on ANY frame or body
	// layout change. Decoders reject every other value.
	Version = 2

	// MaxFrame bounds the length prefix: frames beyond it are rejected
	// before any allocation. With Pools.MaxEntries it keeps a corrupt or
	// hostile peer from making a reader allocate unbounded memory.
	MaxFrame = 1 << 20

	// helloKind tags the connection handshake frame. wire kinds start at
	// 1, so 0 is free.
	helloKind = 0

	// FrameOverhead is the per-frame byte cost beyond wire.Message.Size():
	// the 4-byte length prefix plus the version byte (Size already counts
	// the kind byte). A frame is exactly Size()+FrameOverhead bytes
	// (tested), the length tcpnet charges per destination.
	FrameOverhead = 5
)

// helloMagic guards against a stray client speaking some other protocol to
// a member's listener.
var helloMagic = [4]byte{'s', 't', 'a', 'r'}

var (
	// ErrFrame reports a structurally invalid frame (bad length, unknown
	// kind, truncated or oversized body, trailing garbage).
	ErrFrame = errors.New("netwire: malformed frame")
	// ErrVersion reports a version byte this codec does not speak.
	ErrVersion = errors.New("netwire: incompatible version")
)

// AppendFrame appends the framed encoding of m to buf and returns the
// extended slice. It fails with ErrFrame on a message kind the codec does
// not know and on a vector or suspicion universe beyond 65 535 entries.
func AppendFrame(buf []byte, m wire.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, Version)
	var err error
	buf, err = appendBody(buf, m)
	if err != nil {
		return buf[:start], err
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// appendBody appends [kind][body]; its length is exactly m.Size().
func appendBody(buf []byte, m wire.Message) ([]byte, error) {
	buf = append(buf, byte(m.Kind()))
	var err error
	switch v := m.(type) {
	case *wire.Alive:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.RN))
		buf, err = appendPacked(buf, v.SuspLevel)
	case *wire.Suspicion:
		u := v.Suspects.Len()
		if u > math.MaxUint16 {
			return buf, fmt.Errorf("%w: suspicion universe %d exceeds %d", ErrFrame, u, math.MaxUint16)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.RN))
		buf = binary.BigEndian.AppendUint16(buf, uint16(u))
		for _, w := range v.Suspects.Words() {
			buf = binary.BigEndian.AppendUint64(buf, w)
		}
	case *wire.Heartbeat:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
	case *wire.Accusation:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Target))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Epoch))
	case *wire.Query:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
	case *wire.Response:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seq))
		buf, err = appendPacked(buf, v.Counters)
	case *wire.Prepare:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
	case *wire.Promise:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = appendBallot(buf, v.AcceptedAt)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
		buf = append(buf, boolByte(v.HasValue), boolByte(v.NACK))
	case *wire.Accept:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
	case *wire.Accepted:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = appendBallot(buf, v.Ballot)
		buf = append(buf, boolByte(v.NACK))
	case *wire.Decide:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Instance))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
	case *wire.Mux:
		buf = append(buf, v.Lane)
		buf, err = appendBody(buf, v.Inner)
	case *wire.ABCast:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Sender))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.LocalID))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Payload))
	default:
		return buf, fmt.Errorf("%w: cannot encode %T", ErrFrame, m)
	}
	return buf, err
}

// appendPacked appends xs as a packed vector (see the package comment).
func appendPacked(buf []byte, xs []int64) ([]byte, error) {
	if len(xs) > math.MaxUint16 {
		return buf, fmt.Errorf("%w: %d-entry vector exceeds %d", ErrFrame, len(xs), math.MaxUint16)
	}
	base, w := wire.Span(xs)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(xs)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(base))
	buf = append(buf, byte(w))
	if w == 0 {
		return buf, nil
	}
	buf = slices.Grow(buf, (len(xs)*w+7)/8)
	// acc holds the pending output bits at its top and zeros in its low
	// free bits (1 ≤ free ≤ 64); it is flushed whenever it fills. The
	// "& 63" on a shift that is already below 64 spares the compiler's
	// shift-overflow guard on the per-entry path.
	var acc uint64
	free := uint(64)
	for _, x := range xs {
		d := uint64(x) - uint64(base)
		if uint(w) < free {
			free -= uint(w)
			acc |= d << (free & 63)
			continue
		}
		spill := uint(w) - free // low bits of d that do not fit, 0..63
		buf = binary.BigEndian.AppendUint64(buf, acc|d>>(spill&63))
		acc, free = d<<(64-spill), 64-spill
	}
	for ; free < 64; free += 8 {
		buf = append(buf, byte(acc>>56))
		acc <<= 8
	}
	return buf, nil
}

func appendBallot(buf []byte, b wire.Ballot) []byte {
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

// AppendHello appends the connection handshake frame: it carries the
// sender's process id and cluster size, so the accepting side can reject
// topology mismatches before decoding a single protocol message.
func AppendHello(buf []byte, from, n int) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, Version, helloKind)
	buf = append(buf, helloMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(from))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// ParseHello decodes a handshake frame (as returned by ReadFrame).
func ParseHello(frame []byte) (from, n int, err error) {
	if len(frame) < 2 {
		return 0, 0, fmt.Errorf("%w: short hello", ErrFrame)
	}
	if frame[0] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, frame[0], Version)
	}
	if frame[1] != helloKind {
		return 0, 0, fmt.Errorf("%w: frame kind %d is not a hello", ErrFrame, frame[1])
	}
	body := frame[2:]
	if len(body) != len(helloMagic)+8 {
		return 0, 0, fmt.Errorf("%w: hello body length %d", ErrFrame, len(body))
	}
	if [4]byte(body[:4]) != helloMagic {
		return 0, 0, fmt.Errorf("%w: bad hello magic", ErrFrame)
	}
	from = int(int32(binary.BigEndian.Uint32(body[4:])))
	n = int(int32(binary.BigEndian.Uint32(body[8:])))
	return from, n, nil
}

// ReadFrame reads one length-prefixed frame from r into buf (which is grown
// as needed and reused across calls) and returns the frame bytes
// [version][kind][body]. Callers pass the previous return value back in as
// buf to stay allocation-free in steady state: the length prefix is read
// into buf too (a local array would escape through r and cost one heap
// object per frame).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 2 || n > MaxFrame {
		return buf[:0], fmt.Errorf("%w: length %d", ErrFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], fmt.Errorf("%w: truncated body: %v", ErrFrame, err)
	}
	return buf, nil
}

// Pools decodes frames into reused wire payloads: one free list per pooled
// message kind, plus scratch space for bitset words. Like every wire pool it
// is single-owner — each connection reader owns one, and the payloads it
// hands out must be recycled by that same owner (the transport does so right
// after the delivery callback returns).
type Pools struct {
	// MaxEntries caps the count of every decoded vector and suspicion
	// universe; a frame above it fails with ErrFrame before anything is
	// sized. Zero caps nothing beyond the u16 count. A reader facing a
	// peer sets it to the cluster size (tcpnet does, from the hello).
	MaxEntries int

	alive wire.AlivePool
	susp  wire.SuspicionPool
	hb    wire.HeartbeatPool
	prep  wire.PreparePool
	prom  wire.PromisePool
	acc   wire.AcceptPool
	accd  wire.AcceptedPool
	dec   wire.DecidePool
	mux   wire.MuxPool
	ab    wire.ABCastPool

	words []uint64 // scratch for Suspicion decode
}

// Decode decodes one frame (as returned by ReadFrame: [version][kind][body])
// into a message drawn from p's pools. Pooled payloads must be recycled by
// the caller once consumed; non-pooled kinds (Accusation, Query, Response)
// are freshly allocated and left to the garbage collector.
func (p *Pools) Decode(frame []byte) (wire.Message, error) {
	if len(frame) < 2 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrFrame, len(frame))
	}
	if frame[0] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, frame[0], Version)
	}
	m, rest, err := p.decodeBody(frame[1:], 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(rest))
	}
	return m, nil
}

// decodeBody consumes one [kind][body] and returns the remaining bytes.
// depth guards Mux nesting (a hostile frame could otherwise nest envelopes
// to arbitrary recursion depth).
func (p *Pools) decodeBody(data []byte, depth int) (wire.Message, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("%w: missing kind", ErrFrame)
	}
	kind := wire.Kind(data[0])
	r := reader{buf: data[1:]}
	var m wire.Message
	switch kind {
	case wire.KindAlive:
		rn := r.int64()
		if n, base, w := r.vector(p.MaxEntries); r.err == nil {
			v := p.alive.Get(n)
			v.RN = rn
			r.unpack(v.SuspLevel, base, w)
			m = v
		}
	case wire.KindSuspicion:
		rn := r.int64()
		n := r.universe(p.MaxEntries)
		if r.err == nil {
			words := (n + 63) / 64
			if cap(p.words) < words {
				p.words = make([]uint64, words)
			}
			p.words = p.words[:words]
			for i := range p.words {
				p.words[i] = r.uint64()
			}
			// Bits beyond the universe must be zero — SetWords would
			// silently clear them, making the decode non-canonical.
			if r.err == nil && n%64 != 0 && words > 0 && p.words[words-1]>>(n%64) != 0 {
				r.err = fmt.Errorf("%w: suspicion bits beyond universe %d", ErrFrame, n)
			}
			if r.err == nil {
				v := p.susp.Get(n)
				v.RN = rn
				v.Suspects.SetWords(p.words)
				m = v
			}
		}
	case wire.KindHeartbeat:
		v := p.hb.Get()
		v.Seq = r.int64()
		m = v
	case wire.KindAccusation:
		m = &wire.Accusation{Target: int32(r.uint32()), Epoch: r.int64()}
	case wire.KindQuery:
		m = &wire.Query{Seq: r.int64()}
	case wire.KindResponse:
		v := &wire.Response{Seq: r.int64()}
		if n, base, w := r.vector(p.MaxEntries); r.err == nil {
			v.Counters = make([]int64, n)
			r.unpack(v.Counters, base, w)
		}
		m = v
	case wire.KindPrepare:
		v := p.prep.Get()
		v.Instance = r.int64()
		v.Ballot = r.ballot()
		m = v
	case wire.KindPromise:
		v := p.prom.Get()
		v.Instance = r.int64()
		v.Ballot = r.ballot()
		v.AcceptedAt = r.ballot()
		v.Value = r.int64()
		v.HasValue = r.bool()
		v.NACK = r.bool()
		m = v
	case wire.KindAccept:
		v := p.acc.Get()
		v.Instance = r.int64()
		v.Ballot = r.ballot()
		v.Value = r.int64()
		m = v
	case wire.KindAccepted:
		v := p.accd.Get()
		v.Instance = r.int64()
		v.Ballot = r.ballot()
		v.NACK = r.bool()
		m = v
	case wire.KindDecide:
		v := p.dec.Get()
		v.Instance = r.int64()
		v.Value = r.int64()
		m = v
	case wire.KindMux:
		if depth > 0 {
			// The protocols never nest envelopes; a frame that does is
			// corrupt (and unbounded nesting would be a decoder DoS).
			return nil, nil, fmt.Errorf("%w: nested mux", ErrFrame)
		}
		lane := r.byte()
		if r.err != nil {
			return nil, nil, r.err
		}
		inner, rest, err := p.decodeBody(r.buf, depth+1)
		if err != nil {
			return nil, nil, err
		}
		v := p.mux.Get()
		v.Lane = lane
		v.Inner = inner
		return v, rest, nil
	case wire.KindABCast:
		v := p.ab.Get()
		v.Sender = int32(r.uint32())
		v.LocalID = r.int64()
		v.Payload = r.int64()
		m = v
	default:
		return nil, nil, fmt.Errorf("%w: unknown kind %d", ErrFrame, kind)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return m, r.buf, nil
}

// reader is a bounds-checked cursor with a sticky error, plus the
// pre-validated length reads the pooled decode paths need.
type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("%w: truncated body", ErrFrame)
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

// bool is strict — only 0 and 1 are valid, so every accepted frame has
// exactly one encoding (the canonical-codec property the fuzzer checks).
func (r *reader) bool() bool {
	b := r.byte()
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("%w: bool byte %d", ErrFrame, b)
	}
	return b == 1
}

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

// vector reads a packed vector's [n][base][w] header and validates it,
// including that n is within limit (when set) and that its ceil(n·w/8)
// offset bytes actually remain, BEFORE the caller sizes a payload by n — a
// corrupt count must fail the frame, not allocate.
func (r *reader) vector(limit int) (n int, base int64, w uint) {
	n = int(r.uint16())
	base = r.int64()
	w = uint(r.byte())
	switch {
	case r.err != nil:
	case limit > 0 && n > limit:
		r.err = fmt.Errorf("%w: vector count %d exceeds %d", ErrFrame, n, limit)
	case w > 64:
		r.err = fmt.Errorf("%w: vector width %d", ErrFrame, w)
	case n == 0 && (base != 0 || w != 0):
		r.err = fmt.Errorf("%w: empty vector with base %d, width %d", ErrFrame, base, w)
	case len(r.buf) < (n*int(w)+7)/8:
		r.err = fmt.Errorf("%w: count %d exceeds body", ErrFrame, n)
	}
	return n, base, w
}

// unpack reads len(dst) w-bit offsets and stores base+offset in dst. It
// enforces the one canonical encoding: the smallest offset is 0 (base is
// the minimum), w is the width of the largest (minimal), no entry passes
// MaxInt64, and the padding bits are zero.
func (r *reader) unpack(dst []int64, base int64, w uint) {
	if w == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	src := r.take((len(dst)*int(w) + 7) / 8)
	// acc holds the next n ≤ 63 unread input bits at its top and zeros
	// below them; it refills 64 bits at a time, fewer at the tail. On the
	// per-entry path w ≤ n < 64, so "& 63" changes no shift (it spares the
	// compiler's shift-overflow guard).
	var acc uint64
	var n uint
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range dst {
		var d uint64
		if n >= w {
			d = acc >> ((64 - w) & 63)
			acc <<= w & 63
			n -= w
		} else {
			var next uint64
			var got uint
			if len(src) >= 8 {
				next, got, src = binary.BigEndian.Uint64(src), 64, src[8:]
			} else {
				for k, b := range src {
					next |= uint64(b) << (56 - 8*k)
				}
				got, src = uint(8*len(src)), nil
			}
			need := w - n // 1..64, and got ≥ need: the length was checked
			d = acc>>(64-w) | next>>(64-need)
			acc, n = next<<need, got-need
		}
		lo, hi = min(lo, d), max(hi, d)
		dst[i] = int64(uint64(base) + d)
	}
	switch {
	case acc != 0:
		r.err = fmt.Errorf("%w: non-zero vector padding", ErrFrame)
	case lo != 0:
		r.err = fmt.Errorf("%w: vector base %d is not its minimum", ErrFrame, base)
	case uint(bits.Len64(hi)) != w:
		r.err = fmt.Errorf("%w: vector width %d is not minimal", ErrFrame, w)
	case hi > uint64(math.MaxInt64)-uint64(base):
		r.err = fmt.Errorf("%w: vector entry overflows int64", ErrFrame)
	}
}

// universe reads a Suspicion universe size and validates it against limit
// (when set) and its word count against the remaining bytes.
func (r *reader) universe(limit int) int {
	n := int(r.uint16())
	if r.err == nil && limit > 0 && n > limit {
		r.err = fmt.Errorf("%w: universe %d exceeds %d", ErrFrame, n, limit)
		return 0
	}
	if r.err == nil && len(r.buf) < ((n+63)/64)*8 {
		r.err = fmt.Errorf("%w: universe %d exceeds body", ErrFrame, n)
		return 0
	}
	return n
}

func (r *reader) ballot() wire.Ballot {
	return wire.Ballot{Counter: r.int64(), Proposer: int32(r.uint32())}
}
