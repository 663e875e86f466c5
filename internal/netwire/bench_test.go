package netwire

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// benchKinds are the hot-path kinds: what actually dominates the sockets in
// a running cluster (every ALIVE/SUSPICION tick, consensus rounds, mux
// envelopes).
var benchKinds = []wire.Kind{
	wire.KindAlive, wire.KindSuspicion, wire.KindHeartbeat,
	wire.KindPromise, wire.KindMux,
}

// BenchmarkEncode: AppendFrame into a reused buffer must not allocate.
func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range benchKinds {
		msg := randMessage(rng, kind, 13)
		b.Run(kind.String(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = AppendFrame(buf[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode: the pooled decode path must allocate nothing beyond the
// payload it reuses — the zero-copy acceptance criterion. The loop recycles
// each payload the way a transport reader does, so every iteration after the
// first is served from the pool.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range benchKinds {
		frame, err := AppendFrame(nil, randMessage(rng, kind, 13))
		if err != nil {
			b.Fatal(err)
		}
		body := frame[4:]
		b.Run(kind.String(), func(b *testing.B) {
			pools := &Pools{}
			// Warm the pools so the steady state is measured.
			m, err := pools.Decode(body)
			if err != nil {
				b.Fatal(err)
			}
			recycleAll(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := pools.Decode(body)
				if err != nil {
					b.Fatal(err)
				}
				recycleAll(m)
			}
		})
	}
}

// TestDecodeHotPathZeroAlloc pins the acceptance criterion outside the
// bench run: steady-state pooled decode performs zero heap allocations, for
// every hot kind and for an ALIVE of every packed width.
func TestDecodeHotPathZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var msgs []wire.Message
	for _, kind := range benchKinds {
		msgs = append(msgs, randMessage(rng, kind, 13))
	}
	for _, n := range []int{13, 251} {
		for _, w := range []int{0, 1, 3, 56, 57, 63, 64} {
			msgs = append(msgs, randMessageWidth(rng, wire.KindAlive, n, w))
		}
	}
	for _, msg := range msgs {
		kind := msg.Kind()
		frame, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		pools := &Pools{}
		m, err := pools.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		recycleAll(m)
		allocs := testing.AllocsPerRun(200, func() {
			m, err := pools.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			recycleAll(m)
		})
		if allocs != 0 {
			t.Errorf("%v (%d bytes): %v allocs/op on the pooled decode path, want 0", kind, len(body), allocs)
		}
	}
}
