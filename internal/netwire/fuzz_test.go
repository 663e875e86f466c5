package netwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// retiredKinds are the reserved kind bytes 4-6 and the kinds they tagged
// before those kinds were deleted; a frame carrying one must not decode.
var retiredKinds = []struct {
	b    byte
	name string
}{{4, "accusation"}, {5, "query"}, {6, "response"}}

// seedFrames is the FuzzDecode seed corpus: one valid frame per (kind,
// size), one frame per (retired kind byte, size), ALIVE vectors at the
// packed widths that matter (0, Lemma 8's 1 at n=251, and 64), every
// rejected packed form, and the structural edge cases. Decode sees
// [version][kind][body], so the length prefix is cut.
func seedFrames(t testing.TB) []namedFrame {
	var out []namedFrame
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 64, 65} {
		for _, kind := range allKinds() {
			frame, err := AppendFrame(nil, randMessage(rng, kind, n))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedFrame{name: strings.ToLower(kind.String()) + "-n" + fmt.Sprint(n), frame: frame[4:]})
		}
		for _, r := range retiredKinds {
			frame := binary.BigEndian.AppendUint64([]byte{Version, r.b}, uint64(n))
			out = append(out, namedFrame{name: r.name + "-n" + fmt.Sprint(n), frame: frame})
		}
	}
	for _, c := range []struct{ n, w int }{{5, 0}, {251, 1}, {2, 64}} {
		frame, err := AppendFrame(nil, randMessageWidth(rng, wire.KindAlive, c.n, c.w))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedFrame{name: fmt.Sprintf("alive-w%d-n%d", c.w, c.n), frame: frame[4:]})
	}
	out = append(out, rejectedVectors()...)
	return append(out,
		namedFrame{name: "hello", frame: AppendHello(nil, 2, 5)[4:]},
		namedFrame{name: "empty", frame: []byte{}},
		namedFrame{name: "version-only", frame: []byte{Version}},
		namedFrame{name: "wrong-version", frame: []byte{Version + 1, byte(wire.KindHeartbeat)}},
	)
}

// FuzzDecode throws arbitrary bytes at the frame decoder. The invariants:
// Decode never panics; whatever it accepts must re-encode to the exact same
// bytes (the codec is canonical — there is exactly one encoding per
// message); and the re-encoded frame must decode again. The committed seed
// corpus (testdata/fuzz/FuzzDecode) holds seedFrames, so even the
// non-fuzzing `go test` run exercises every decode path; CI additionally
// runs a 20s fuzz smoke.
func FuzzDecode(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pools := &Pools{}
		m, err := pools.Decode(data)
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("decoded message %v does not re-encode: %v", m.Kind(), err)
		}
		if !bytes.Equal(re[4:], data) {
			t.Fatalf("non-canonical decode:\n  in: %x\n out: %x", data, re[4:])
		}
		if _, err := pools.Decode(re[4:]); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

// FuzzPackedVector checks the packed int64 vector from both sides. First,
// raw read as big-endian int64s, each shifted right by shift%64 and added
// to base (so narrow widths are as reachable as wide ones), is any []int64:
// as an ALIVE it must encode to exactly Size()+FrameOverhead bytes and
// decode back to itself. Second, raw taken as the vector bytes of an ALIVE
// body must, if Decode accepts it, re-encode byte-identically.
func FuzzPackedVector(f *testing.F) {
	f.Add(int64(0), uint8(0), []byte{})
	f.Add(int64(-3), uint8(63), bytes.Repeat([]byte{0xA5, 0x5A}, 4*251))
	f.Add(int64(math.MinInt64), uint8(0), []byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(1), uint8(61), aliveFrame(3, 7, 2, 0b01100000)[10:])
	for _, c := range rejectedVectors() {
		f.Add(int64(0), uint8(0), c.frame[10:])
	}
	f.Fuzz(func(t *testing.T, base int64, shift uint8, raw []byte) {
		xs := make([]int64, len(raw)/8)
		for i := range xs {
			xs[i] = base + int64(binary.BigEndian.Uint64(raw[8*i:])>>(shift%64))
		}
		m := &wire.Alive{RN: base, SuspLevel: xs}
		frame, err := AppendFrame(nil, m)
		if len(xs) > math.MaxUint16 {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("%d-entry vector: %v, want ErrFrame", len(xs), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if got, want := len(frame), m.Size()+FrameOverhead; got != want {
			t.Fatalf("frame %d bytes, Size()+%d = %d", got, FrameOverhead, want)
		}
		pools := &Pools{}
		dec, err := pools.Decode(frame[4:])
		if err != nil {
			t.Fatalf("decode of %x: %v", frame[4:], err)
		}
		if got := dec.(*wire.Alive); got.RN != base || !slices.Equal(got.SuspLevel, xs) {
			t.Fatalf("round trip: got %d %v, want %d %v", got.RN, got.SuspLevel, base, xs)
		}

		body := append(binary.BigEndian.AppendUint64([]byte{Version, byte(wire.KindAlive)}, uint64(base)), raw...)
		if dec, err := pools.Decode(body); err == nil {
			re, err := AppendFrame(nil, dec)
			if err != nil || !bytes.Equal(re[4:], body) {
				t.Fatalf("accepted vector does not re-encode identically (%v):\n  in: %x\n out: %x", err, body, re)
			}
		}
	})
}

// TestWriteSeedCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecode from seedFrames, in the `go test fuzz v1` file
// format. Run with
//
//	NETWIRE_WRITE_CORPUS=1 go test ./internal/netwire -run TestWriteSeedCorpus
//
// after any frame-layout change (and bump Version).
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("NETWIRE_WRITE_CORPUS") == "" {
		t.Skip("set NETWIRE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range seedFrames(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.frame)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
