package netwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/wire"
)

// widths are the packed-vector bit widths the tests draw from: the Figure 3
// cases (0 and 1, the second twice as likely), a narrow Figure 1/2 width,
// and the two widest, where the offsets no longer fit 56-bit reads.
var widths = []int{0, 1, 1, 3, 63, 64}

// randMessage builds a random instance of every wire kind. n is the cluster
// size used for sized payloads; int64 vectors get a random width.
func randMessage(rng *rand.Rand, kind wire.Kind, n int) wire.Message {
	return randMessageWidth(rng, kind, n, widths[rng.Intn(len(widths))])
}

// vecOfWidth returns n int64s whose packed width is exactly w when n ≥ 2:
// entry 0 is the base, entry 1 is base+2^w−1 and the rest lie between. At
// w=64 that is MinInt64 and MaxInt64 in one vector.
func vecOfWidth(rng *rand.Rand, n, w int) []int64 {
	mask := uint64(1)<<w - 1 // w=64 shifts to 0, so the mask is all ones
	base := -rng.Int63n(1 << 20)
	if w == 64 {
		base = math.MinInt64
	}
	xs := make([]int64, n)
	for i := range xs {
		var d uint64
		switch i {
		case 0:
		case 1:
			d = mask
		default:
			d = rng.Uint64() & mask
		}
		xs[i] = int64(uint64(base) + d)
	}
	return xs
}

// randMessageWidth is randMessage with the vectors' width fixed at w (a Mux
// passes w to its inner message).
func randMessageWidth(rng *rand.Rand, kind wire.Kind, n, w int) wire.Message {
	i64 := func() int64 { return rng.Int63() - rng.Int63() }
	id := func() int32 { return int32(rng.Intn(max(n, 1))) }
	ballot := func() wire.Ballot {
		return wire.Ballot{Counter: rng.Int63n(1 << 30), Proposer: id()}
	}
	switch kind {
	case wire.KindAlive:
		return &wire.Alive{RN: i64(), SuspLevel: vecOfWidth(rng, n, w)}
	case wire.KindSuspicion:
		v := &wire.Suspicion{RN: i64(), Suspects: bitset.New(n)}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Suspects.Add(i)
			}
		}
		return v
	case wire.KindHeartbeat:
		return &wire.Heartbeat{Seq: i64()}
	case wire.KindPrepare:
		return &wire.Prepare{Instance: i64(), Ballot: ballot()}
	case wire.KindPromise:
		return &wire.Promise{Instance: i64(), Ballot: ballot(), AcceptedAt: ballot(),
			Value: i64(), HasValue: rng.Intn(2) == 0, NACK: rng.Intn(2) == 0}
	case wire.KindAccept:
		return &wire.Accept{Instance: i64(), Ballot: ballot(), Value: i64()}
	case wire.KindAccepted:
		return &wire.Accepted{Instance: i64(), Ballot: ballot(), NACK: rng.Intn(2) == 0}
	case wire.KindDecide:
		return &wire.Decide{Instance: i64(), Value: i64()}
	case wire.KindMux:
		inner := randMessageWidth(rng, innerKinds[rng.Intn(len(innerKinds))], n, w)
		return &wire.Mux{Lane: uint8(rng.Intn(3)), Inner: inner}
	case wire.KindABCast:
		return &wire.ABCast{Sender: id(), LocalID: i64(), Payload: i64()}
	}
	panic(fmt.Sprintf("unhandled kind %v", kind))
}

// innerKinds are the kinds a Mux envelope wraps in practice (never another
// Mux — the decoder rejects nesting).
var innerKinds = []wire.Kind{
	wire.KindAlive, wire.KindSuspicion, wire.KindHeartbeat, wire.KindPrepare,
	wire.KindPromise, wire.KindAccept, wire.KindAccepted, wire.KindDecide,
	wire.KindABCast,
}

// allKinds lists every live kind, skipping the reserved bytes (which have no
// name of their own).
func allKinds() []wire.Kind {
	var out []wire.Kind
	for k := wire.Kind(1); k < wire.KindCount; k++ {
		if k.String() != fmt.Sprintf("Kind(%d)", k) {
			out = append(out, k)
		}
	}
	return out
}

// TestRoundTripAllKinds: every wire kind survives encode -> frame read ->
// pooled decode, across cluster sizes spanning bitset word boundaries; the
// canonical-bytes comparison (re-encode the decoded message) catches field
// mix-ups that a per-field comparison might miss, and the frame length must
// equal Size() + FrameOverhead so transports can account bytes without
// encoding twice.
func TestRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pools := &Pools{}
	for _, n := range []int{0, 1, 3, 5, 13, 64, 65, 128, 200, 251} {
		for _, kind := range allKinds() {
			for rep := 0; rep < 20; rep++ {
				msg := randMessage(rng, kind, n)
				frame, err := AppendFrame(nil, msg)
				if err != nil {
					t.Fatalf("n=%d %v: encode: %v", n, kind, err)
				}
				if got, want := len(frame), msg.Size()+FrameOverhead; got != want {
					t.Fatalf("n=%d %v: frame length %d, want Size()+%d = %d",
						n, kind, got, FrameOverhead, want)
				}
				body, err := ReadFrame(bytes.NewReader(frame), nil)
				if err != nil {
					t.Fatalf("n=%d %v: read: %v", n, kind, err)
				}
				dec, err := pools.Decode(body)
				if err != nil {
					t.Fatalf("n=%d %v: decode: %v", n, kind, err)
				}
				re, err := AppendFrame(nil, dec)
				if err != nil {
					t.Fatalf("n=%d %v: re-encode: %v", n, kind, err)
				}
				if !bytes.Equal(frame, re) {
					t.Fatalf("n=%d %v: round trip changed bytes\n in: %x\nout: %x", n, kind, frame, re)
				}
				recycleAll(dec)
			}
		}
	}
}

// TestRoundTripSamples: hand-built edge cases decode to the values they were
// built from (a per-field check, so an encoder and decoder that agree on a
// wrong layout still fail): nil and empty vectors, a Mux-wrapped ALIVE, a
// suspicion universe one past a word, and vectors at both extremes of int64.
func TestRoundTripSamples(t *testing.T) {
	samples := []wire.Message{
		&wire.Alive{RN: 42, SuspLevel: []int64{0, 1, 2, 3, 4}},
		&wire.Alive{RN: 0, SuspLevel: nil},
		&wire.Alive{RN: -1, SuspLevel: []int64{}},
		&wire.Alive{RN: 7, SuspLevel: []int64{math.MaxInt64, math.MinInt64, 0}},
		&wire.Alive{RN: 8, SuspLevel: []int64{math.MaxInt64 - 1, math.MaxInt64}},
		&wire.Suspicion{RN: 9, Suspects: bitset.FromMembers(7, 1, 3, 6)},
		&wire.Suspicion{RN: 1, Suspects: bitset.FromMembers(65, 0, 64)},
		&wire.Mux{Lane: 0, Inner: &wire.Alive{RN: 1, SuspLevel: []int64{5}}},
		&wire.Mux{Lane: 2, Inner: &wire.Alive{RN: 3, SuspLevel: []int64{4, 5, 5, 4}}},
	}
	pools := &Pools{}
	for _, m := range samples {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m, err)
		}
		if got, want := len(frame), m.Size()+FrameOverhead; got != want {
			t.Errorf("%v: frame length %d, want %d", m, got, want)
		}
		dec, err := pools.Decode(frame[4:])
		if err != nil {
			t.Fatalf("%v: decode: %v", m, err)
		}
		if got, want := describe(dec), describe(m); got != want {
			t.Errorf("round trip: got %s, want %s", got, want)
		}
		recycleAll(dec)
	}
}

// describe renders the fields a packed vector or a bitset carries, with nil
// and empty vectors alike (the wire does not tell them apart).
func describe(m wire.Message) string {
	switch v := m.(type) {
	case *wire.Alive:
		return fmt.Sprintf("ALIVE(%d, %v)", v.RN, append([]int64{}, v.SuspLevel...))
	case *wire.Suspicion:
		return fmt.Sprintf("SUSPICION(%d, %d, %v)", v.RN, v.Suspects.Len(), v.Suspects)
	case *wire.Mux:
		return fmt.Sprintf("MUX(%d, %s)", v.Lane, describe(v.Inner))
	}
	return fmt.Sprintf("%v", m)
}

// TestSizeMatchesBody: Size() is the exact [kind][body] length for every
// kind, with the vectors at every width the encoding distinguishes, and
// computing it allocates nothing.
func TestSizeMatchesBody(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 5, 64, 65, 251} {
		for _, w := range []int{0, 1, 3, 63, 64} {
			for _, kind := range allKinds() {
				msg := randMessageWidth(rng, kind, n, w)
				body, err := appendBody(nil, msg)
				if err != nil {
					t.Fatalf("n=%d w=%d %v: %v", n, w, kind, err)
				}
				if got := msg.Size(); got != len(body) {
					t.Errorf("n=%d w=%d %v: Size() %d, body %d bytes", n, w, kind, got, len(body))
				}
				if allocs := testing.AllocsPerRun(10, func() { _ = msg.Size() }); allocs != 0 {
					t.Errorf("n=%d w=%d %v: Size() allocates %v", n, w, kind, allocs)
				}
			}
			if n >= 2 {
				if _, got := wire.Span(vecOfWidth(rng, n, w)); got != w {
					t.Errorf("n=%d: vecOfWidth(%d) has width %d", n, w, got)
				}
			}
		}
	}
	// Lemma 8's case at n=251: a base plus one 251-bit set.
	if got := (&wire.Alive{SuspLevel: vecOfWidth(rng, 251, 1)}).Size(); got != 52 {
		t.Errorf("n=251 width-1 ALIVE is %d bytes, want 52", got)
	}
}

// TestAppendFrameRejectsOversizedCounts: a count that does not fit its u16
// fails the encode with ErrFrame instead of wrapping to a corrupt frame,
// and leaves the caller's buffer as it was.
func TestAppendFrameRejectsOversizedCounts(t *testing.T) {
	const n = math.MaxUint16 + 1
	for _, m := range []wire.Message{
		&wire.Alive{SuspLevel: make([]int64, n)},
		&wire.Suspicion{Suspects: bitset.New(n)},
		&wire.Mux{Inner: &wire.Alive{SuspLevel: make([]int64, n)}},
	} {
		buf := []byte{0xAB}
		out, err := AppendFrame(buf, m)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%v with a %d count: %v, want ErrFrame", m.Kind(), n, err)
		}
		if !bytes.Equal(out, buf) {
			t.Errorf("%v: failed encode left %d bytes, want the caller's 1", m.Kind(), len(out))
		}
	}
	// One below the limit still encodes.
	if _, err := AppendFrame(nil, &wire.Alive{SuspLevel: make([]int64, n-1)}); err != nil {
		t.Errorf("%d-entry vector: %v", n-1, err)
	}
}

// recycleAll returns a decoded message to its pool (transports do this after
// the delivery callback).
func recycleAll(m wire.Message) {
	if rc, ok := m.(wire.Recyclable); ok {
		rc.Retain()
		rc.Recycle()
	}
}

// TestPooledDecodeReuses: decoding the same kind twice through one Pools
// value (with recycling between) must hand back the same payload object —
// the zero-copy contract.
func TestPooledDecodeReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pools := &Pools{}
	msg := randMessage(rng, wire.KindAlive, 7)
	frame, _ := AppendFrame(nil, msg)

	first, err := pools.Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	firstPtr := first.(*wire.Alive)
	firstPtr.SetNarrow(bitset.New(len(firstPtr.SuspLevel))) // a summary to go stale
	recycleAll(first)
	second, err := pools.Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if second.(*wire.Alive) != firstPtr {
		t.Fatal("recycled Alive was not reused by the next decode")
	}
	if firstPtr.Narrow() != nil {
		t.Fatal("a decoded Alive reports the summary its previous use carried")
	}
}

// TestSummaryStaysOffTheWire: an ALIVE's summary (wire.Alive.SetNarrow)
// lives in SuspLevel's slack, which neither Size nor AppendFrame reads, so
// a summarized payload frames byte for byte like the same vector without
// one, and decodes to a payload without one.
func TestSummaryStaysOffTheWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 5, 64, 65, 251} {
		for _, w := range []int{0, 1} {
			var pool wire.AlivePool
			m := pool.Get(n)
			m.RN = 9
			copy(m.SuspLevel, vecOfWidth(rng, n, w))
			plain, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			size := m.Size()
			base, _ := wire.Span(m.SuspLevel)
			set := bitset.New(n)
			for k, v := range m.SuspLevel {
				if v == base {
					set.Add(k)
				}
			}
			m.SetNarrow(set)
			if m.Narrow() == nil {
				t.Fatalf("n=%d w=%d: summary not attached", n, w)
			}
			framed, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(framed, plain) || m.Size() != size {
				t.Fatalf("n=%d w=%d: the summary changed the frame (%d B, Size %d) from %d B, Size %d", n, w, len(framed), m.Size(), len(plain), size)
			}
			dec, err := (&Pools{}).Decode(framed[4:])
			if err != nil {
				t.Fatal(err)
			}
			if got := dec.(*wire.Alive); got.Narrow() != nil || !slices.Equal(got.SuspLevel, m.SuspLevel) {
				t.Fatalf("n=%d w=%d: decoded %v with summary %v", n, w, got.SuspLevel, got.Narrow())
			}
		}
	}
}

// TestHelloRoundTrip: the handshake frame carries (from, n) and rejects
// corruption.
func TestHelloRoundTrip(t *testing.T) {
	buf := AppendHello(nil, 3, 9)
	body, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	from, n, err := ParseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if from != 3 || n != 9 {
		t.Fatalf("hello = (%d, %d), want (3, 9)", from, n)
	}
	// A protocol frame is not a hello.
	pf, _ := AppendFrame(nil, &wire.Heartbeat{Seq: 1})
	if _, _, err := ParseHello(pf[4:]); err == nil {
		t.Fatal("protocol frame accepted as hello")
	}
	// Bad magic.
	bad := AppendHello(nil, 0, 3)
	bad[6] ^= 0xff
	if _, _, err := ParseHello(bad[4:]); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

// TestDecodeRejects: malformed frames fail with ErrFrame (or ErrVersion),
// never panic, and never decode to a message.
func TestDecodeRejects(t *testing.T) {
	pools := &Pools{}
	good, _ := AppendFrame(nil, &wire.Decide{Instance: 1, Value: 2})
	body := good[4:]

	cases := map[string][]byte{
		"empty":          {},
		"version only":   {Version},
		"wrong version":  append([]byte{Version + 1}, body[1:]...),
		"unknown kind":   {Version, 0xEE, 1, 2, 3},
		"hello as frame": {Version, helloKind, 's', 't', 'a', 'r', 0, 0, 0, 1, 0, 0, 0, 3},
		"truncated":      body[:len(body)-3],
		"trailing":       append(append([]byte{}, body...), 0xAA),
	}
	for _, r := range retiredKinds {
		cases["retired "+r.name] = binary.BigEndian.AppendUint64([]byte{Version, r.b}, 1)
	}
	for name, frame := range cases {
		if m, err := pools.Decode(frame); err == nil {
			t.Errorf("%s: decoded %v, want error", name, m)
		} else if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrVersion) {
			t.Errorf("%s: error %v is neither ErrFrame nor ErrVersion", name, err)
		}
	}

	// Every non-canonical or corrupt packed vector, in a bare ALIVE and
	// inside a Mux. Oversized counts must be rejected BEFORE sizing a
	// payload by them.
	for _, c := range rejectedVectors() {
		mux := append([]byte{Version, byte(wire.KindMux), 1}, c.frame[1:]...)
		for _, frame := range [][]byte{c.frame, mux} {
			if m, err := pools.Decode(frame); !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), c.why) {
				t.Errorf("%s (kind %d): decoded %v, error %v, want ErrFrame for %q", c.name, frame[1], m, err, c.why)
			}
		}
	}
	susp := []byte{Version, byte(wire.KindSuspicion)}
	susp = binary.BigEndian.AppendUint64(susp, 1)
	susp = binary.BigEndian.AppendUint16(susp, 0xFFFF)
	if _, err := pools.Decode(susp); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized Suspicion universe: %v, want ErrFrame", err)
	}

	// A width-0 vector needs no offset bytes, so only MaxEntries bounds its
	// count: 20 body bytes claiming 65 535 entries must fail, not size a payload.
	capped := &Pools{MaxEntries: 251}
	wide := aliveFrame(0xFFFF, 0, 0)
	for name, frame := range map[string][]byte{
		"alive":    wide,
		"mux":      append([]byte{Version, byte(wire.KindMux), 1}, wide[1:]...),
		"universe": binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint64([]byte{Version, byte(wire.KindSuspicion)}, 1), 252),
	} {
		if m, err := capped.Decode(frame); !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "exceeds 251") {
			t.Errorf("%s over MaxEntries: decoded %v, error %v, want ErrFrame", name, m != nil, err)
		}
	}
	if m, err := capped.Decode(aliveFrame(251, 7, 0)); err != nil || len(m.(*wire.Alive).SuspLevel) != 251 {
		t.Errorf("width-0 ALIVE at MaxEntries: %v, %v", m, err)
	}

	// Nested Mux is a decoder DoS vector; reject it outright.
	inner, _ := AppendFrame(nil, &wire.Mux{Lane: 0, Inner: &wire.Heartbeat{Seq: 1}})
	nested := []byte{Version, byte(wire.KindMux), 0}
	nested = append(nested, inner[5:]...) // inner [kind][body]
	if _, err := pools.Decode(nested); !errors.Is(err, ErrFrame) {
		t.Errorf("nested mux: %v, want ErrFrame", err)
	}
}

// aliveFrame hand-builds an ALIVE frame as Decode sees it, with round 1 and
// the given packed-vector header and offset bytes.
func aliveFrame(n uint16, base int64, w byte, offsets ...byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{Version, byte(wire.KindAlive)}, 1)
	b = binary.BigEndian.AppendUint16(b, n)
	b = binary.BigEndian.AppendUint64(b, uint64(base))
	return append(append(b, w), offsets...)
}

// namedFrame is one hand-built frame for the reject table and the corpus;
// why is a fragment of the error Decode must give for it.
type namedFrame struct {
	name, why string
	frame     []byte
}

// rejectedVectors lists one ALIVE frame per rule of the packed vector's
// canonical form, each of which Decode must reject.
func rejectedVectors() []namedFrame {
	return []namedFrame{
		{"vec-base-not-min", "not its minimum", aliveFrame(2, 0, 1, 0b11000000)},
		{"vec-width-not-minimal", "not minimal", aliveFrame(2, 0, 2, 0b00010000)},
		{"vec-width64-not-minimal", "not minimal", aliveFrame(2, 0, 64, append(make([]byte, 15), 1)...)},
		{"vec-width-over-64", "width 65", aliveFrame(1, 0, 65, make([]byte, 9)...)},
		{"vec-padding-set", "padding", aliveFrame(2, 0, 1, 0b01000001)},
		{"vec-empty-with-base", "empty vector", aliveFrame(0, 5, 0)},
		{"vec-empty-with-width", "empty vector", aliveFrame(0, 0, 1)},
		{"vec-entry-overflows", "overflows", aliveFrame(2, math.MaxInt64, 1, 0b01000000)},
		{"vec-offsets-truncated", "exceeds body", aliveFrame(251, 0, 1, make([]byte, 31)...)},
		{"vec-count-exceeds-body", "exceeds body", aliveFrame(0xFFFF, 0, 1)},
	}
}

// TestReadFrameRejects: the stream reader bounds the length prefix and
// reports truncation.
func TestReadFrameRejects(t *testing.T) {
	// Oversized length prefix: rejected before allocating.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:]), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized length: %v, want ErrFrame", err)
	}
	// Undersized length (cannot hold version+kind).
	binary.BigEndian.PutUint32(huge[:], 1)
	if _, err := ReadFrame(bytes.NewReader(append(huge[:], 0)), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("undersized length: %v, want ErrFrame", err)
	}
	// Truncated body.
	frame, _ := AppendFrame(nil, &wire.Heartbeat{Seq: 7})
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("truncated body: %v, want ErrFrame", err)
	}
}

// TestStreamedFrames: many frames back to back on one stream decode in
// order with a single reused read buffer — the transport's read loop.
func TestStreamedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := allKinds()
	var stream bytes.Buffer
	var sent []wire.Message
	var encBuf []byte
	for i := 0; i < 200; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		m := randMessage(rng, kind, 9)
		sent = append(sent, m)
		var err error
		encBuf, err = AppendFrame(encBuf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(encBuf)
	}
	pools := &Pools{}
	var readBuf []byte
	for i, want := range sent {
		var err error
		readBuf, err = ReadFrame(&stream, readBuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := pools.Decode(readBuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wantBytes, _ := AppendFrame(nil, want)
		gotBytes, _ := AppendFrame(nil, got)
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("frame %d (%v) changed in flight", i, want.Kind())
		}
		recycleAll(got)
	}
}
