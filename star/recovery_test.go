package star_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/star"
)

// recoveryOpts is the shared sim-churn configuration of the recovery tests:
// rotating churn over a 5-process cluster with the default 100ms snapshot
// cadence, so every restart finds a journaled snapshot written well before
// its crash (first crash at 500ms, first snapshot at 100ms).
func recoveryOpts(rs star.RecoveryStore, extra ...star.Option) []star.Option {
	opts := []star.Option{
		star.N(5), star.Resilience(2), star.Seed(23),
		star.Churn(500*time.Millisecond, 2*time.Second, 600*time.Millisecond, 8*time.Second),
		star.WithRecovery(rs),
	}
	return append(opts, extra...)
}

// TestRecoveryRestoresAcrossChurn is the tentpole's happy path: with a
// journal attached, every churn restart resumes from a journaled snapshot —
// no fallbacks, every recovery event carries the restored round and no
// error — and the cluster still stabilizes on the never-churned center.
func TestRecoveryRestoresAcrossChurn(t *testing.T) {
	rs := star.MemJournal()
	defer rs.Close()
	var events []star.Event
	c, err := star.New(recoveryOpts(rs,
		star.Observe(star.EventRecovery, func(ev star.Event) { events = append(events, ev) }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Capabilities().Has(star.CapRecovery) {
		t.Fatalf("sim transport does not declare CapRecovery: %v", c.Capabilities())
	}
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Stabilized {
		t.Fatalf("recovery churn run did not stabilize: %+v", rep.Stabilization)
	}
	if rep.Recovery.Snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	if rep.Recovery.SaveErrors != 0 {
		t.Fatalf("%d save errors on a MemJournal", rep.Recovery.SaveErrors)
	}
	if rep.Recovery.Restores == 0 || rep.Recovery.Fallbacks != 0 {
		t.Fatalf("restores=%d fallbacks=%d, want every restart restored",
			rep.Recovery.Restores, rep.Recovery.Fallbacks)
	}
	if len(events) == 0 {
		t.Fatal("no EventRecovery observed")
	}
	var beyondFirst bool
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("recovery event for process %d carries error: %v", ev.Proc, ev.Err)
		}
		if ev.Round < 1 {
			t.Fatalf("recovery event for process %d restored round %d < 1", ev.Proc, ev.Round)
		}
		if ev.Round > 1 {
			beyondFirst = true
		}
	}
	if !beyondFirst {
		t.Fatal("every restore landed on round 1: snapshots never captured progress")
	}
}

// TestRecoveryDeterministic: with a MemJournal the journal contents are a
// pure function of (options, seed), so a recovery-enabled churn run must
// reproduce byte-identical domain metrics — including the recovery
// counters — seed for seed.
func TestRecoveryDeterministic(t *testing.T) {
	mk := func() string {
		rs := star.MemJournal()
		defer rs.Close()
		c, err := star.New(recoveryOpts(rs)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		rep := c.Report()
		return fmt.Sprintf("%s recovery=%+v", domainKey(c), rep.Recovery)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("recovery run not deterministic:\n run1: %s\n run2: %s", a, b)
	}
}

// TestFileJournalSurvivesClusterRestart is durability end to end: run a
// churny cluster against a FileJournal, close everything, reopen the same
// path, and a second cluster resumes its initial processes from the journal
// (Restores counts initial builds too).
func TestFileJournalSurvivesClusterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")

	rs, err := star.FileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := star.New(recoveryOpts(rs)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.Recovery.Snapshots == 0 || rep.Recovery.SaveErrors != 0 {
		t.Fatalf("file journal run: snapshots=%d saveErrors=%d", rep.Recovery.Snapshots, rep.Recovery.SaveErrors)
	}
	c.Close()
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	rs2, err := star.FileJournal(path)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer rs2.Close()
	c2, err := star.New(recoveryOpts(rs2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep2 := c2.Report()
	if !rep2.Stabilized {
		t.Fatalf("resumed cluster did not stabilize: %+v", rep2.Stabilization)
	}
	// The 5 initial processes all found their predecessor's snapshots.
	if rep2.Recovery.Restores < 5 {
		t.Fatalf("restores=%d after reopen, want >= 5 (initial processes resume)", rep2.Recovery.Restores)
	}
	if rep2.Recovery.Fallbacks != 0 {
		t.Fatalf("fallbacks=%d on a clean journal", rep2.Recovery.Fallbacks)
	}
}

// TestFileJournalReservedWordsRestore: payload bytes [40:56] of every
// journal record are reserved, and earlier builds stored tuned timing values
// there. Rewriting every record of a real journal with nonzero reserved words
// (and re-sealing its CRC, as those builds did) must not cost a single
// restore: a cluster restarted on it resumes its processes with no fallback.
func TestFileJournalReservedWordsRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	seedJournal(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := 0; off < len(raw); records++ {
		plen := int(binary.LittleEndian.Uint32(raw[off:]))
		payload := raw[off+8 : off+8+plen]
		binary.LittleEndian.PutUint64(payload[40:48], uint64(3*time.Millisecond))
		binary.LittleEndian.PutUint64(payload[48:56], uint64(15*time.Millisecond))
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.ChecksumIEEE(payload))
		off += 8 + plen
	}
	if records == 0 {
		t.Fatal("seeded journal holds no records")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := star.FileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	c, err := star.New(recoveryOpts(rs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Stabilized {
		t.Fatalf("cluster on a reserved-words journal did not stabilize: %+v", rep.Stabilization)
	}
	if rep.Recovery.Restores < 5 || rep.Recovery.Fallbacks != 0 {
		t.Fatalf("restores=%d fallbacks=%d, want every initial process restored",
			rep.Recovery.Restores, rep.Recovery.Fallbacks)
	}
}

// TestFileJournalCorruptTailDegrades injects a torn/bit-flipped tail into a
// real journal file and checks the middle rung of the degradation ladder:
// the store reopens, restarts restore from the last intact record, the
// taint is surfaced as ErrCorruptJournal on the recovery event — and the
// run still stabilizes. No panic, no fatal error.
func TestFileJournalCorruptTailDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	seedJournal(t, path)

	// Flip a bit inside the last record's payload: CRC catches it, the
	// scan truncates to the valid prefix, older records survive.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := star.FileJournal(path)
	if err != nil {
		t.Fatalf("a corrupt tail must not fail open: %v", err)
	}
	defer rs.Close()
	var mu sync.Mutex
	var events []star.Event
	c, err := star.New(recoveryOpts(rs,
		// No fresh snapshots before the first restart: every load during
		// this run sees the tainted pre-corruption records.
		star.SnapshotEvery(time.Hour),
		star.Observe(star.EventRecovery, func(ev star.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Stabilized {
		t.Fatalf("corrupt-tail run did not stabilize: %+v", rep.Stabilization)
	}
	if len(events) == 0 {
		t.Fatal("no EventRecovery observed")
	}
	var tainted bool
	for _, ev := range events {
		if ev.Err != nil {
			if !errors.Is(ev.Err, star.ErrCorruptJournal) {
				t.Fatalf("recovery error %v does not wrap ErrCorruptJournal", ev.Err)
			}
			tainted = true
		}
	}
	if !tainted {
		t.Fatal("corruption never surfaced on a recovery event")
	}
}

// TestFileJournalGarbageFallsBack is the ladder's bottom rung: a journal of
// pure garbage yields no restorable state at all, every restart degrades to
// fresh-start + JoinCurrentRound with ErrCorruptJournal on its event — and
// the cluster still stabilizes, matching plain churn behaviour.
func TestFileJournalGarbageFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	garbage := make([]byte, 256)
	for i := range garbage {
		garbage[i] = byte(i*37 + 11)
	}
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := star.FileJournal(path)
	if err != nil {
		t.Fatalf("a garbage journal must not fail open: %v", err)
	}
	defer rs.Close()
	var mu sync.Mutex
	var events []star.Event
	c, err := star.New(recoveryOpts(rs,
		star.SnapshotEvery(time.Hour),
		star.Observe(star.EventRecovery, func(ev star.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Stabilized {
		t.Fatalf("garbage-journal run did not stabilize: %+v", rep.Stabilization)
	}
	if rep.Recovery.Restores != 0 {
		t.Fatalf("restores=%d from a garbage journal", rep.Recovery.Restores)
	}
	if rep.Recovery.Fallbacks == 0 {
		t.Fatal("no fallbacks counted")
	}
	for _, ev := range events {
		if !errors.Is(ev.Err, star.ErrCorruptJournal) {
			t.Fatalf("fallback event err = %v, want ErrCorruptJournal", ev.Err)
		}
		if ev.Round != 0 {
			t.Fatalf("fallback event carries restored round %d", ev.Round)
		}
	}
}

// seedJournal runs a short churny cluster against a fresh FileJournal at
// path and closes everything, leaving real snapshot records on disk.
func seedJournal(t *testing.T, path string) {
	t.Helper()
	rs, err := star.FileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := star.New(recoveryOpts(rs)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rep := c.Report(); rep.Recovery.Snapshots == 0 {
		t.Fatal("seeding run wrote no snapshots")
	}
	c.Close()
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryOptionValidation pins the option-time contract of the
// recovery surface.
func TestRecoveryOptionValidation(t *testing.T) {
	// SnapshotEvery without a journal is a configuration bug.
	if _, err := star.New(star.N(5), star.SnapshotEvery(time.Second)); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("SnapshotEvery without WithRecovery: err = %v, want ErrInvalidParams", err)
	}
	// A zero RecoveryStore has no journal behind it.
	if _, err := star.New(star.N(5), star.WithRecovery(star.RecoveryStore{})); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("zero RecoveryStore: err = %v, want ErrInvalidParams", err)
	}
	// A journal path that cannot be opened surfaces at option build time.
	if _, err := star.FileJournal(filepath.Join(t.TempDir(), "missing", "journal.bin")); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("unopenable journal path: err = %v, want ErrInvalidParams", err)
	}
	// Non-positive cadence.
	rs := star.MemJournal()
	defer rs.Close()
	if _, err := star.New(star.N(5), star.WithRecovery(rs), star.SnapshotEvery(0)); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("zero SnapshotEvery: err = %v, want ErrInvalidParams", err)
	}
}

// TestLiveRecoveryChurn drives the recovery path on the live transport:
// wall-clock snapshot cadence, restores inside runtime.Restart while the
// callback lock is held, and the race detector over the lot. Assertions are
// behavioural (scheduling is nondeterministic): snapshots were taken, every
// executed restart went through the recovery path, and the run ends without
// error.
func TestLiveRecoveryChurn(t *testing.T) {
	rs := star.MemJournal()
	defer rs.Close()
	var mu sync.Mutex
	recoveries, restarts := 0, 0
	c, err := star.New(
		star.N(4), star.Resilience(1), star.Seed(5),
		star.Live(),
		star.AlivePeriod(2*time.Millisecond),
		star.SampleEvery(5*time.Millisecond),
		star.Scenario(star.Combined(star.BaseDelay(100*time.Microsecond, 400*time.Microsecond))),
		star.Churn(100*time.Millisecond, 400*time.Millisecond, 150*time.Millisecond, 1200*time.Millisecond),
		star.WithRecovery(rs),
		star.SnapshotEvery(10*time.Millisecond),
		star.Observe(star.EventRecovery|star.EventRestart, func(ev star.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case star.EventRecovery:
				recoveries++
			case star.EventRestart:
				restarts++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Capabilities().Has(star.CapRecovery) {
		t.Fatalf("live engine lacks CapRecovery: %v", c.Capabilities())
	}

	// Let the rotation play out while polling accessors (races surface
	// under -race), then require agreement among the survivors.
	for i := 0; i < 30; i++ {
		if err := c.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < c.N(); id++ {
			c.Leader(id)
			c.Rounds(id)
		}
		c.Metrics()
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := c.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if leader, ok := c.Agreement(); ok && !c.Crashed(leader) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live agreement after recovery churn within 15s: %v", c.Leaders())
		}
	}
	rep := c.Report()
	if rep.Recovery.Snapshots == 0 {
		t.Fatal("live cadence took no snapshots")
	}
	mu.Lock()
	defer mu.Unlock()
	if restarts == 0 {
		t.Fatal("churn executed no restarts")
	}
	if recoveries != restarts {
		t.Fatalf("recoveries=%d restarts=%d, want one recovery event per restart", recoveries, restarts)
	}
	if got := rep.Recovery.Restores + rep.Recovery.Fallbacks; got < uint64(restarts) {
		t.Fatalf("restores+fallbacks=%d < %d restarts", got, restarts)
	}
}
