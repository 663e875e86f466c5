package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// seedSchedules is the FuzzSchedule seed corpus: the schedules the unit
// tests build, Sample output at two cluster sizes with and without journal
// steps, and the empty schedule. Each is the schedule file format plus the
// cluster size it validates against.
func seedSchedules(t testing.TB) map[string]fuzzSeed {
	out := map[string]fuzzSeed{}
	add := func(name string, n int, s Schedule) {
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fuzzSeed{data: data, n: uint8(n)}
	}
	add("valid-n5", 5, validSchedule)
	add("roundtrip-n5", 5, roundTripSchedule)
	add("empty-n3", 3, Schedule{})
	for seed := uint64(1); seed <= 4; seed++ {
		add(fmt.Sprintf("sample-%d-n5-journal", seed), 5, Sample(seed, 5, 2, 8*time.Second, true))
		add(fmt.Sprintf("sample-%d-n3", seed), 3, Sample(seed, 3, 1, 8*time.Second, false))
	}
	return out
}

type fuzzSeed struct {
	data []byte
	n    uint8
}

// FuzzSchedule feeds arbitrary bytes to the schedule file parser. Whatever
// UnmarshalJSON and Validate(n) accept must reach a fixpoint after one
// MarshalJSON round trip: the rendered bytes parse back to the same
// schedule, still valid, which renders to the same bytes. Failing soaks
// print a schedule's JSON for replay, so that JSON must mean exactly the
// schedule that ran. The committed seed corpus (testdata/fuzz/FuzzSchedule)
// holds seedSchedules; CI additionally runs a 20s fuzz smoke.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		var s Schedule
		if s.UnmarshalJSON(data) != nil || s.Validate(int(n)) != nil {
			return
		}
		once, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal of an accepted schedule: %v", err)
		}
		var back Schedule
		if err := back.UnmarshalJSON(once); err != nil {
			t.Fatalf("rendered schedule does not parse: %v\n%s", err, once)
		}
		if err := back.Validate(int(n)); err != nil {
			t.Fatalf("rendered schedule no longer valid: %v\n%s", err, once)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the schedule:\n got %+v\nwant %+v", back, s)
		}
		twice, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(once) != string(twice) {
			t.Fatalf("no fixpoint:\n %s\n %s", once, twice)
		}
		// A valid schedule's actions, window reversions included, fire in
		// time order from time 0 on.
		var last time.Duration
		for _, e := range s.expand() {
			if e.step.At < last {
				t.Fatalf("action %q at %v fires before %v\n%s", e.step.Desc(), e.step.At, last, once)
			}
			last = e.step.At
		}
	})
}

// TestWriteScheduleCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSchedule from seedSchedules, in the `go test fuzz v1`
// file format. Run with
//
//	CHAOS_WRITE_CORPUS=1 go test ./internal/chaos -run TestWriteScheduleCorpus
//
// after a schedule-format change.
func TestWriteScheduleCorpus(t *testing.T) {
	if os.Getenv("CHAOS_WRITE_CORPUS") == "" {
		t.Skip("set CHAOS_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSchedule")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range seedSchedules(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\nuint8(" + strconv.Itoa(int(s.n)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
