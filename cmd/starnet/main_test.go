package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/star"
)

// TestMain doubles the test binary as the starnet binary (the standard
// helper-process pattern): when STARNET_CHILD is set the process runs
// starnet's real main instead of the tests, so the launcher's re-exec of
// os.Args[0] spawns genuine member processes.
func TestMain(m *testing.M) {
	if os.Getenv("STARNET_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTopology reserves explicit loopback ports and writes the shared
// topology file the member processes load.
func writeTopology(t *testing.T, dir string, n int, journal bool) string {
	t.Helper()
	topo := topology{
		N:             n,
		Addrs:         make([]string, n),
		Algorithm:     "fig3",
		Seed:          1,
		SnapshotEvery: "300ms",
	}
	for i := range topo.Addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		topo.Addrs[i] = l.Addr().String()
		defer l.Close()
	}
	if journal {
		topo.JournalDir = filepath.Join(dir, "journals")
	}
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// starnet re-runs the test binary as the starnet binary.
func starnet(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STARNET_CHILD=1")
	return cmd
}

// TestAllLocalMode: the single-process multi-listener cluster elects a
// leader over real sockets and reports agreement.
func TestAllLocalMode(t *testing.T) {
	topoPath := writeTopology(t, t.TempDir(), 3, false)
	out, err := starnet(t, "-topo", topoPath, "-duration", "8s").CombinedOutput()
	if err != nil {
		t.Fatalf("starnet: %v\n%s", err, out)
	}
	reps := memberReports(string(out))
	if len(reps) == 0 {
		t.Fatalf("no REPORT line in output:\n%s", out)
	}
	if !reps[len(reps)-1].Agreed {
		t.Fatalf("no agreement:\n%s", out)
	}
}

// TestSpawnKillRestore is the full deployment shape: five OS processes
// sharing only a topology file, real TCP between them, one member
// SIGKILLed mid-run (no shutdown path, like a machine loss) and re-exec'd
// by the launcher. The cluster must end in agreement and the replacement
// process must RESTORE its state from the on-disk journal — the restore,
// not the fresh-start fallback, is what the kill is testing.
func TestSpawnKillRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	topoPath := writeTopology(t, t.TempDir(), 5, true)
	cmd := starnet(t,
		"-topo", topoPath, "-spawn",
		"-duration", "14s",
		"-kill", "0@4s",
		"-restart-delay", "500ms")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("starnet -spawn: %v\n%s", err, out)
	}
	text := string(out)
	cluster := clusterLine(t, text)
	if !strings.Contains(cluster, "agreed=true") {
		t.Fatalf("cluster did not agree: %s\n%s", cluster, text)
	}
	if !strings.Contains(text, "SIGKILL member 0") {
		t.Fatalf("kill schedule did not run:\n%s", text)
	}
	var restores, fallbacks uint64
	for _, r := range memberReports(text) {
		restores += r.Report.Recovery.Restores
		fallbacks += r.Report.Recovery.Fallbacks
	}
	if restores < 1 {
		t.Fatalf("SIGKILL + re-exec counted no journal restores (fallbacks=%d):\n%s", fallbacks, text)
	}
}

// TestChaosScheduleSpawn runs a chaos schedule across real OS processes:
// each member executes its share of a shared fault timeline (a healed
// partition plus a loss window) while its invariant monitor watches. The
// launcher must end agreed with zero violations — the CLUSTER verdict
// hard-fails on any — and every member's REPORT must show the schedule
// actually fired.
func TestChaosScheduleSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	topoPath := writeTopology(t, dir, 3, false)
	sched := star.NewChaosSchedule().
		Partition(2*time.Second, []int{2}, []int{0, 1}).
		Loss(3*time.Second, 0.2, time.Second).
		HealAll(5 * time.Second)
	raw, err := sched.JSON()
	if err != nil {
		t.Fatal(err)
	}
	chaosPath := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(chaosPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := starnet(t,
		"-topo", topoPath, "-spawn",
		"-duration", "14s",
		"-chaos", chaosPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("starnet -spawn -chaos: %v\n%s", err, out)
	}
	text := string(out)
	cluster := clusterLine(t, text)
	if !strings.Contains(cluster, "agreed=true") {
		t.Fatalf("cluster did not agree after chaos: %s\n%s", cluster, text)
	}
	if !strings.Contains(cluster, "chaos_violations=0") {
		t.Fatalf("chaos violations in cluster verdict: %s\n%s", cluster, text)
	}
	reps := memberReports(text)
	if len(reps) == 0 {
		t.Fatalf("no REPORT line in output:\n%s", text)
	}
	for _, r := range reps {
		if r.Report.Chaos == nil || r.Report.Chaos.StepsApplied < sched.Len() {
			t.Fatalf("member %d did not run the schedule (want >=%d steps): %+v\n%s", r.Member, sched.Len(), r.Report.Chaos, text)
		}
	}
}

// TestChaosTopologyLoss: a topology "loss" becomes a sticky loss step at
// t=0, appended after any -chaos file's steps, and no loss and no file
// means no chaos at all.
func TestChaosTopologyLoss(t *testing.T) {
	dir := t.TempDir()
	raw, err := star.NewChaosSchedule().Kill(time.Second, 2).JSON()
	if err != nil {
		t.Fatal(err)
	}
	chaosPath := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(chaosPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		loss      float64
		chaosPath string
		want      string // schedule JSON; "" = no schedule
	}{
		{0, "", ""},
		{0.2, "", `{"steps":[{"at":"0s","kind":"loss","pct":0.2}]}`},
		{0, chaosPath, `{"steps":[{"at":"1s","kind":"kill","proc":2}]}`},
		{0.2, chaosPath, `{"steps":[{"at":"1s","kind":"kill","proc":2},{"at":"0s","kind":"loss","pct":0.2}]}`},
	} {
		cs, err := memberChaos(&topology{N: 3, Loss: tc.loss}, tc.chaosPath)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if cs != nil {
			b, err := cs.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = string(b)
		}
		if got != tc.want {
			t.Fatalf("loss %g, chaos %q: schedule %s, want %s", tc.loss, tc.chaosPath, got, tc.want)
		}
	}
}

// TestFedKillRestore is the federated crash-recovery e2e: a whole 2x3
// federation (two TCP shards plus the tier-2 delegate cluster) runs in one
// OS process with durable journals, is SIGKILLed mid-run after electing a
// global leader — no shutdown path, like a machine loss — and then re-exec'd
// with the same command line. The replacement process must restore BOTH
// tiers from the on-disk journals (shard_restores and tier_restores in its
// FEDREPORT) and end with a global leader and zero invariant violations.
func TestFedKillRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	journalDir := filepath.Join(t.TempDir(), "journals")
	args := []string{"-fed", "2x3", "-journal", journalDir, "-seed", "7", "-duration", "60s"}

	// First incarnation: run until a global leader is up and journaled,
	// then pull the plug.
	first := starnet(t, args...)
	out, err := first.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	first.Stderr = os.Stderr
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	elected := false
	deadline := time.After(45 * time.Second)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
scan:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break scan
			}
			t.Logf("[fed-1] %s", line)
			if strings.HasPrefix(line, "STATUS") && !strings.Contains(line, "global=-1") {
				elected = true
				break scan
			}
		case <-deadline:
			break scan
		}
	}
	if !elected {
		first.Process.Kill()
		first.Wait()
		t.Fatal("no global leader before the kill deadline")
	}
	// Give the 250ms snapshot cadence a beat to journal the elected state.
	time.Sleep(time.Second)
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()
	for range lines {
	}

	// Second incarnation: same command line, same journals. Both tiers must
	// restore rather than rejoin fresh.
	args[len(args)-1] = "12s"
	out2, err := starnet(t, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("re-exec'd federation: %v\n%s", err, out2)
	}
	text := string(out2)
	rep := finalFedReport(t, text).Report
	fr := rep.Federation
	if fr.ShardRecovery.Restores < 1 {
		t.Fatalf("re-exec'd federation restored no shard state from %s:\n%s", journalDir, text)
	}
	if rep.Recovery.Restores < 1 {
		t.Fatalf("re-exec'd federation restored no tier state from %s:\n%s", journalDir, text)
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations after restore: %+v\n%s", fr.Violations, text)
	}
	if fr.GlobalLeader == star.None {
		t.Fatalf("no global leader after restore:\n%s", text)
	}
}

// TestFedTraffic is the global-lane e2e: a 2x3 federation on real TCP
// loopback sockets with the application lanes up, three waves of global
// broadcasts routed shard lane → tier total order → back down every shard.
// The FEDREPORT lane verdict must show every submission committed exactly once and
// every member delivering the identical sequence (the command itself exits
// nonzero on a lost or duplicated delivery, so the error check carries most
// of the verdict).
func TestFedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock e2e")
	}
	out, err := starnet(t, "-fed", "2x3", "-seed", "7", "-traffic", "3", "-duration", "15s").CombinedOutput()
	if err != nil {
		t.Fatalf("starnet -fed -traffic: %v\n%s", err, out)
	}
	lanes := finalFedReport(t, string(out)).Lanes
	if lanes == nil {
		t.Fatalf("FEDREPORT has no lane verdict:\n%s", out)
	}
	if lanes.Submitted != 6 || lanes.GSeq != lanes.Submitted {
		t.Fatalf("committed %d of %d submissions: %+v", lanes.GSeq, lanes.Submitted, lanes)
	}
	if !lanes.LogAgree {
		t.Fatalf("members disagree on the global sequence: %+v", lanes)
	}
}

// TestReportLine: the REPORT line a member prints decodes back to the same
// verdict, and a REPORT whose body is not valid JSON counts as no REPORT.
func TestReportLine(t *testing.T) {
	want := memberReport{Member: 2, Leader: 1, Agreed: true}
	want.Report.Recovery.Restores = 3
	want.Report.Recovery.Fallbacks = 1
	want.Report.Chaos = &star.ChaosReport{
		StepsApplied:    4,
		Violations:      []star.Violation{{At: 1500 * time.Millisecond, Rule: "majority-agreement", Detail: "leaders=[0 1 -1]"}},
		TotalViolations: 70,
	}
	good := verdictLine("REPORT", want)
	for _, tc := range []struct {
		name, line string
		ok         bool
	}{
		{"printed", good, true},
		{"truncated JSON", good[:len(good)-1], false},
		{"key=value body", "REPORT member=2 leader=1 agreed=true restores=3", false},
		{"other tag", "STATUS t=1s leaders=[1 1 1]", false},
	} {
		got, ok := decodeReport(tc.line)
		if ok != tc.ok {
			t.Fatalf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if !ok {
			if !reflect.DeepEqual(got, memberReport{}) {
				t.Fatalf("%s: half-parsed %+v", tc.name, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", tc.name, got, want)
		}
	}
}

// memberReports decodes every REPORT line in out, in order, past the
// launcher's "[mN] " prefix.
func memberReports(out string) []memberReport {
	var reps []memberReport
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[m") {
			_, line, _ = strings.Cut(line, "] ")
		}
		if r, ok := decodeReport(strings.TrimSpace(line)); ok {
			reps = append(reps, r)
		}
	}
	return reps
}

// finalFedReport decodes the FEDREPORT line of a federated run.
func finalFedReport(t *testing.T, out string) fedReport {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if body, ok := strings.CutPrefix(line, "FEDREPORT "); ok {
			var rep fedReport
			if err := json.Unmarshal([]byte(body), &rep); err != nil {
				t.Fatalf("FEDREPORT: %v\n%s", err, line)
			}
			return rep
		}
	}
	t.Fatalf("no FEDREPORT line:\n%s", out)
	return fedReport{}
}

// clusterLine returns the launcher's final CLUSTER verdict line.
func clusterLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CLUSTER ") {
			return line
		}
	}
	t.Fatalf("no CLUSTER line in output:\n%s", out)
	return ""
}
