package harness

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestRunFedDeterminism: a federated harness run is a pure function of its
// spec — two executions produce byte-identical federation reports.
func TestRunFedDeterminism(t *testing.T) {
	spec := FedSpec{Shards: 3, ShardSize: 4, Seed: 9, Duration: 4 * time.Second}
	a, err := RunFed(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFed(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a.Federation)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Federation)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("federation reports differ:\n%s\n%s", ja, jb)
	}
	if a.Federation.GlobalLeader < 0 {
		t.Fatal("no global leader")
	}
	if a.Events == 0 {
		t.Fatal("no events counted")
	}
}

// TestRunFedChurnKnobs: both churn knobs run clean — shard-local churn
// (members inside every shard rotate through crash/restart) and delegate
// churn (tier members are killed on a rotation) — and each still ends with
// a stable global leader and no invariant violations.
func TestRunFedChurnKnobs(t *testing.T) {
	specs := map[string]FedSpec{
		"shard-local": {
			Shards: 3, ShardSize: 4, Seed: 5, Duration: 8 * time.Second,
			ShardChurnStart: time.Second, ShardChurnPeriod: 2 * time.Second,
			ShardChurnDowntime: 400 * time.Millisecond,
		},
		"delegate": {
			Shards: 3, ShardSize: 4, Seed: 5, Duration: 8 * time.Second,
			DelegateChurnStart: time.Second, DelegateChurnPeriod: 2 * time.Second,
			DelegateChurnDowntime: 400 * time.Millisecond, DelegateChurnUntil: 5 * time.Second,
		},
		"recovery": {
			Shards: 2, ShardSize: 3, Seed: 5, Duration: 8 * time.Second,
			ShardChurnStart: time.Second, ShardChurnPeriod: 2 * time.Second,
			ShardChurnDowntime: 400 * time.Millisecond,
			Recovery:           true,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			res, err := RunFed(spec)
			if err != nil {
				t.Fatal(err)
			}
			fr := res.Federation
			if fr.GlobalLeader < 0 {
				t.Fatal("no global leader at end")
			}
			if !fr.TierStabilized {
				t.Fatal("tier did not stabilize")
			}
			if fr.TotalViolations != 0 {
				t.Fatalf("invariant violations: %+v", fr.Violations)
			}
			if name == "recovery" && fr.ShardRecovery.Restores == 0 {
				t.Fatal("shard churn with recovery journals counted no restores")
			}
		})
	}
}

// TestRunFedTraffic: the Traffic knob drives global-lane waves — every
// submission commits, every member agrees, and the committed sequence and
// the federation report are byte-identical between the default fork/join
// run and a GOMAXPROCS=1 run, whose epoch loop is the inline shard-order
// loop (worker count must not perturb the replay).
func TestRunFedTraffic(t *testing.T) {
	spec := FedSpec{
		Shards: 3, ShardSize: 4, Seed: 11, Duration: 8 * time.Second,
		Traffic: 3,
	}
	parRun, err := RunFed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.Traffic * spec.Shards; parRun.GlobalSeq != want {
		t.Fatalf("GlobalSeq = %d, want %d", parRun.GlobalSeq, want)
	}
	if !parRun.GlobalAgree {
		t.Fatal("members disagree on the global sequence")
	}
	if parRun.Federation.GlobalDecisions != uint64(parRun.GlobalSeq) {
		t.Fatalf("report GlobalDecisions = %d, want %d",
			parRun.Federation.GlobalDecisions, parRun.GlobalSeq)
	}

	seqRun := func() *FedResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		res, err := RunFed(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if seqRun.GlobalHash != parRun.GlobalHash || seqRun.GlobalSeq != parRun.GlobalSeq {
		t.Fatalf("GOMAXPROCS=1 replay diverged: hash %x/%x len %d/%d",
			seqRun.GlobalHash, parRun.GlobalHash, seqRun.GlobalSeq, parRun.GlobalSeq)
	}
	ja, err := json.Marshal(parRun.Federation)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(seqRun.Federation)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("GOMAXPROCS=1 federation report differs:\n%s\n%s", ja, jb)
	}
}

// TestFlatConfig: the flat control mirrors the federated shape.
func TestFlatConfig(t *testing.T) {
	cfg := FlatConfig(FedSpec{Shards: 4, ShardSize: 8, Seed: 3})
	if cfg.N != 32 || cfg.T != 15 || cfg.Seed != 3 {
		t.Fatalf("flat control = n=%d t=%d seed=%d, want n=32 t=15 seed=3", cfg.N, cfg.T, cfg.Seed)
	}
	res, err := Run(cfg.withQuickDuration(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Stabilized {
		t.Fatal("flat control did not stabilize")
	}
}

// withQuickDuration shortens a config for tests.
func (c Config) withQuickDuration(d time.Duration) Config {
	c.Duration = d
	return c
}
