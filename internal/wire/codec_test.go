package wire_test

// These tests check the wire message types through internal/netwire, the
// only codec: malformed bytes are rejected, suspicion sets round-trip, and
// arbitrary input never panics the decoder. An external test package, since
// netwire imports wire.

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/netwire"
	"repro/internal/wire"
)

// roundTrip frames m and decodes it back as a reader would see it (without the
// length prefix).
func roundTrip(pools *netwire.Pools, m wire.Message) (wire.Message, error) {
	frame, err := netwire.AppendFrame(nil, m)
	if err != nil {
		return nil, err
	}
	return pools.Decode(frame[4:])
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"badKind":   {netwire.Version, 0xff, 0, 0},
		"truncated": {netwire.Version, byte(wire.KindAlive), 1, 2},
		"zeroKind":  {netwire.Version, 0},
	}
	pools := &netwire.Pools{}
	for name, data := range cases {
		if m, err := pools.Decode(data); !errors.Is(err, netwire.ErrFrame) {
			t.Errorf("%s: decoded %v, err = %v, want ErrFrame", name, m, err)
		}
	}
}

func TestUnmarshalTrailing(t *testing.T) {
	frame, err := netwire.AppendFrame(nil, &wire.Heartbeat{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := append(frame[4:], 0)
	if _, err := (&netwire.Pools{}).Decode(data); !errors.Is(err, netwire.ErrFrame) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

func TestQuickSuspicionRoundTrip(t *testing.T) {
	pools := &netwire.Pools{}
	f := func(seed int64, rn int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		s := bitset.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.Add(i)
			}
		}
		back, err := roundTrip(pools, &wire.Suspicion{RN: rn, Suspects: s})
		if err != nil {
			return false
		}
		got, ok := back.(*wire.Suspicion)
		return ok && got.RN == rn && got.Suspects.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFuzzUnmarshalNoPanic(t *testing.T) {
	pools := &netwire.Pools{}
	f := func(data []byte, kind uint8) bool {
		// Must never panic; an error is fine. The second form gets past
		// the version check so the kind decoders see the random bytes.
		_, _ = pools.Decode(data)
		_, _ = pools.Decode(append([]byte{netwire.Version, kind % uint8(wire.KindCount)}, data...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
