// Command starnet runs a leader-election cluster over the real TCP
// transport (star.Network), from a shared JSON topology file. It is built
// entirely on the public star API and has three modes:
//
//	starnet -topo t.json                      # all members in this process
//	starnet -topo t.json -member 2            # host member 2 only
//	starnet -topo t.json -spawn -duration 15s # fork one OS process per member
//
// A fourth mode runs a whole federation (star.Federation — S shards of M
// processes each electing locally, shard leaders delegated into a tier-2
// cluster that elects the global leader-of-leaders) in this one process,
// every component cluster on real TCP loopback sockets:
//
//	starnet -fed 2x3 -duration 15s            # 2 shards x 3 processes + tier
//	starnet -fed 2x3 -journal /var/run/fed    # durable: FileJournal per shard + tier
//	starnet -fed 2x3 -traffic 4 -duration 20s # + global-lane broadcasts through the tier
//
// With -journal the federation survives process death: SIGKILL the process,
// re-exec the same command line, and every shard plus the tier restores its
// protocol state from its on-disk journal (the final FEDREPORT line counts
// them in Federation.ShardRecovery.Restores and Recovery.Restores).
//
// Any mode takes -chaos schedule.json: a fault timeline (star.WithChaos
// schedule format — partitions, asymmetric cuts, loss/jitter/slow windows,
// kill/restart steps) executed against the cluster while the continuous
// invariant monitor checks re-election, agreement and delivery safety. Every
// member process loads the same schedule and executes its share; the REPORT
// line's Chaos field carries the applied steps and the violations, and any
// violation fails the cluster verdict.
//
// Spawn mode is the real-deployment shape: N OS processes share nothing but
// the topology file and the sockets between them. It can also exercise
// crash-recovery durability with -kill id@t (repeatable): at t the launcher
// SIGKILLs member id's process — no shutdown hooks, exactly like a machine
// loss — and re-execs it. With a journal_dir in the topology the replacement
// process restores its protocol state from the on-disk journal (counted as a
// restore, not a fallback, in its REPORT line).
//
// The topology file:
//
//	{
//	  "n": 5,
//	  "addrs": ["127.0.0.1:7701", "...", "..."],   // one per member, in id order
//	  "algorithm": "fig3",                         // optional, default fig3
//	  "resilience": 2,                             // optional, default N/2-ish (star default)
//	  "seed": 1,                                   // optional
//	  "loss": 0.0,                                 // optional outbound frame-loss probability
//	  "journal_dir": "/var/run/starnet",           // optional: durable recovery journals
//	  "snapshot_every": "500ms"                    // optional journal cadence
//	}
//
// Each member process prints human-readable STATUS lines while running and
// one final verdict line, "REPORT " followed by a JSON memberReport (the
// star.Report without its sampled Timeline). Federated mode ends with
// "FEDREPORT " and a JSON fedReport instead. The launcher prefixes child
// output with the member id, decodes the REPORT lines and prints a final
// human-readable CLUSTER verdict (exit status 1 if the hosted members did
// not end in agreement).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/star"
	"repro/star/harness"
)

// topology is the shared cluster description every member process loads.
type topology struct {
	N             int      `json:"n"`
	Addrs         []string `json:"addrs"`
	Algorithm     string   `json:"algorithm"`
	Resilience    int      `json:"resilience"`
	Seed          uint64   `json:"seed"`
	Loss          float64  `json:"loss"`
	JournalDir    string   `json:"journal_dir"`
	SnapshotEvery string   `json:"snapshot_every"`
}

func loadTopology(path string) (*topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t topology
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.N < 2 {
		return nil, fmt.Errorf("%s: n=%d, want >= 2", path, t.N)
	}
	if len(t.Addrs) != t.N {
		return nil, fmt.Errorf("%s: %d addrs for n=%d", path, len(t.Addrs), t.N)
	}
	return &t, nil
}

// snapshotEvery parses the topology's journal cadence (default 500ms: fast
// enough that a member killed a few seconds in has state to restore).
func (t *topology) snapshotEvery() (time.Duration, error) {
	if t.SnapshotEvery == "" {
		return 500 * time.Millisecond, nil
	}
	return time.ParseDuration(t.SnapshotEvery)
}

// kill is one -kill id@time launcher schedule entry.
type kill struct {
	id int
	at time.Duration
}

// killList implements flag.Value for repeated -kill id@time flags.
type killList []kill

func (k *killList) String() string {
	var parts []string
	for _, e := range *k {
		parts = append(parts, fmt.Sprintf("%d@%v", e.id, e.at))
	}
	return strings.Join(parts, ",")
}

func (k *killList) Set(s string) error {
	id, at, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("want id@duration, e.g. 2@3s, got %q", s)
	}
	pid, err := strconv.Atoi(id)
	if err != nil {
		return fmt.Errorf("bad member id %q: %w", id, err)
	}
	d, err := time.ParseDuration(at)
	if err != nil {
		return fmt.Errorf("bad kill time %q: %w", at, err)
	}
	*k = append(*k, kill{id: pid, at: d})
	return nil
}

func main() {
	var (
		topoPath     = flag.String("topo", "", "path to the shared JSON topology file (required unless -fed)")
		member       = flag.Int("member", -1, "host only this member id (default: all members)")
		spawn        = flag.Bool("spawn", false, "launcher mode: fork one OS process per member")
		duration     = flag.Duration("duration", 15*time.Second, "run length")
		until        = flag.Int64("until", 0, "absolute deadline, unix milliseconds (overrides -duration; set by the launcher so re-exec'd members finish with the rest)")
		restartDelay = flag.Duration("restart-delay", 500*time.Millisecond, "spawn mode: pause between SIGKILL and re-exec")
		chaosPath    = flag.String("chaos", "", "path to a chaos schedule JSON file (each member executes its share of the fault timeline)")
		fedShape     = flag.String("fed", "", "federated mode: host an SxM federation (S TCP shards of M processes plus the tier-2 cluster) in this process, e.g. -fed 2x3")
		fedSeed      = flag.Uint64("seed", 1, "federated mode: base seed")
		fedJournal   = flag.String("journal", "", "federated mode: directory for durable recovery journals (one per shard plus the tier)")
		fedTraffic   = flag.Int("traffic", 0, "federated mode: drive N waves of global-lane broadcasts (one per shard per wave) once a global leader stands; the FEDREPORT line gains the lane verdict")
		kills        killList
	)
	flag.Var(&kills, "kill", "spawn mode: SIGKILL member id's process at time t and re-exec it, as id@t (repeatable)")
	flag.Parse()

	if *fedShape != "" {
		if *topoPath != "" || *spawn || *member >= 0 || *chaosPath != "" || len(kills) != 0 {
			fatal(fmt.Errorf("-fed is standalone (no -topo/-spawn/-member/-chaos/-kill)"))
		}
		deadline := time.Now().Add(*duration)
		if *until != 0 {
			deadline = time.UnixMilli(*until)
		}
		if err := runFedMode(*fedShape, *fedSeed, *fedJournal, *fedTraffic, deadline); err != nil {
			fatal(err)
		}
		return
	}
	if *topoPath == "" {
		fatal(fmt.Errorf("-topo is required"))
	}
	topo, err := loadTopology(*topoPath)
	if err != nil {
		fatal(err)
	}

	deadline := time.Now().Add(*duration)
	if *until != 0 {
		deadline = time.UnixMilli(*until)
	}

	if *spawn {
		if *member >= 0 {
			fatal(fmt.Errorf("-spawn and -member are mutually exclusive"))
		}
		os.Exit(runLauncher(topo, *topoPath, deadline, kills, *restartDelay, *chaosPath))
	}
	if len(kills) != 0 {
		fatal(fmt.Errorf("-kill needs -spawn"))
	}
	if err := runMember(topo, *member, deadline, *chaosPath); err != nil {
		fatal(err)
	}
}

// loadChaos reads and parses a -chaos schedule file.
func loadChaos(path string) (*star.ChaosSchedule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cs, err := star.ParseChaosSchedule(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cs, nil
}

// runMember hosts one member (or, with member < 0, all of them) until the
// deadline, then prints the REPORT line.
func runMember(topo *topology, member int, deadline time.Time, chaosPath string) error {
	if member >= topo.N {
		return fmt.Errorf("member %d out of range for n=%d", member, topo.N)
	}
	var netOpts []star.NetworkOption
	if member >= 0 {
		netOpts = append(netOpts, star.HostMembers(member))
	}
	if topo.Loss > 0 {
		policy := star.NewLinkPolicy(topo.N, topo.Seed+uint64(member+1))
		policy.SetLoss(topo.Loss)
		netOpts = append(netOpts, star.WithLinkPolicy(policy))
	}
	opts := []star.Option{
		star.N(topo.N),
		star.Seed(topo.Seed),
		star.Network(topo.Addrs, netOpts...),
	}
	if topo.Resilience > 0 {
		opts = append(opts, star.Resilience(topo.Resilience))
	}
	if topo.Algorithm != "" {
		alg, err := star.ParseAlgorithm(topo.Algorithm)
		if err != nil {
			return err
		}
		opts = append(opts, star.Algorithm(alg))
	}
	if topo.JournalDir != "" {
		if err := os.MkdirAll(topo.JournalDir, 0o755); err != nil {
			return err
		}
		name := "cluster.journal"
		if member >= 0 {
			name = fmt.Sprintf("member-%d.journal", member)
		}
		rs, err := star.FileJournal(filepath.Join(topo.JournalDir, name))
		if err != nil {
			return err
		}
		every, err := topo.snapshotEvery()
		if err != nil {
			return err
		}
		opts = append(opts, star.WithRecovery(rs), star.SnapshotEvery(every))
	}
	if chaosPath != "" {
		cs, err := loadChaos(chaosPath)
		if err != nil {
			return err
		}
		opts = append(opts, star.WithChaos(cs))
	}

	c, err := star.New(opts...)
	if err != nil {
		return err
	}
	defer c.Close()

	start := time.Now()
	lastStatus := start
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		slice := 500 * time.Millisecond
		if remaining < slice {
			slice = remaining
		}
		if err := c.Run(slice); err != nil {
			return err
		}
		if time.Since(lastStatus) >= time.Second {
			lastStatus = time.Now()
			fmt.Printf("STATUS t=%v leaders=%v\n", time.Since(start).Round(100*time.Millisecond), c.Leaders())
		}
	}

	leader, agreed := c.Agreement()
	rep := c.Report()
	rep.Timeline = nil // grows with the run and has no reader here
	fmt.Println(verdictLine("REPORT", memberReport{Member: member, Leader: leader, Agreed: agreed, Report: *rep}))
	return nil
}

// memberReport is the body of a member process's final REPORT line.
type memberReport struct {
	Member int         `json:"member"` // -1: all members hosted here
	Leader int         `json:"leader"`
	Agreed bool        `json:"agreed"`
	Report star.Report `json:"report"`
}

// fedReport is the body of federated mode's final FEDREPORT line; Lanes is
// set when -traffic drove the global lanes.
type fedReport struct {
	Report star.Report  `json:"report"`
	Lanes  *laneVerdict `json:"lanes,omitempty"`
}

// laneVerdict is the global-lane outcome: how many broadcasts were
// submitted, the committed sequence's length and FNV fingerprint, and
// whether every member delivered that identical order.
type laneVerdict struct {
	Submitted int    `json:"submitted"`
	GSeq      int    `json:"gseq"`
	LogHash   string `json:"log_hash"`
	LogAgree  bool   `json:"log_agree"`
}

// verdictLine renders a verdict line: the tag, a space, and v as JSON. The
// verdict types hold no floats, channels or cycles, so encoding cannot fail.
func verdictLine(tag string, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return tag + " " + string(raw)
}

// decodeReport decodes a member's REPORT line. Any other line, or a REPORT
// whose body is not valid JSON, yields ok=false.
func decodeReport(line string) (rep memberReport, ok bool) {
	body, ok := strings.CutPrefix(line, "REPORT ")
	if !ok || json.Unmarshal([]byte(body), &rep) != nil {
		return memberReport{}, false
	}
	return rep, true
}

// runFedMode hosts an entire SxM federation in this process: S shard
// clusters of M members each plus the tier-2 delegate cluster, every one on
// its own set of TCP loopback sockets (ephemeral ports — all endpoints live
// here, so nothing needs to pre-agree on addresses). With journalDir set,
// each shard and the tier get a durable FileJournal, so a SIGKILLed process
// re-exec'd with the same command line restores both tiers from disk. With
// -traffic > 0 the global application lanes come up too: once a global
// leader stands, every shard submits one broadcast per wave, and the final
// FEDREPORT carries the lane verdict (committed length, the sequence's FNV
// fingerprint, and whether every member delivered the identical order).
func runFedMode(shape string, seed uint64, journalDir string, traffic int, deadline time.Time) error {
	s, m, err := harness.ParseShape(shape)
	if err != nil {
		return fmt.Errorf("-fed: %w", err)
	}
	loopback := func(n int) []string {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		return addrs
	}
	journal := func(name string) ([]star.Option, error) {
		if journalDir == "" {
			return nil, nil
		}
		rs, err := star.FileJournal(filepath.Join(journalDir, name))
		if err != nil {
			return nil, err
		}
		return []star.Option{star.WithRecovery(rs), star.SnapshotEvery(250 * time.Millisecond)}, nil
	}
	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return err
		}
	}
	// Build the per-shard option lists up front so journal errors surface
	// before any cluster binds a socket.
	shardOpts := make([][]star.Option, s)
	for i := 0; i < s; i++ {
		opts := []star.Option{star.Network(loopback(m))}
		jopts, err := journal(fmt.Sprintf("shard-%d.journal", i))
		if err != nil {
			return err
		}
		shardOpts[i] = append(opts, jopts...)
	}
	tierOpts := []star.Option{star.Network(loopback(s))}
	jopts, err := journal("tier.journal")
	if err != nil {
		return err
	}
	tierOpts = append(tierOpts, jopts...)

	fedOpts := []star.FedOption{
		star.FedShape(s, m), star.FedSeed(seed),
		star.FedEpoch(50 * time.Millisecond),
		star.FedShardOptions(func(shard int) []star.Option { return shardOpts[shard] }),
		star.FedTierOptions(tierOpts...),
	}
	if traffic > 0 {
		fedOpts = append(fedOpts, star.FedAppLanes())
	}
	f, err := star.NewFederation(fedOpts...)
	if err != nil {
		return err
	}
	defer f.Close()

	start := time.Now()
	lastStatus := start
	wave, submitted := 0, 0
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		slice := 500 * time.Millisecond
		if remaining < slice {
			slice = remaining
		}
		if err := f.Run(slice); err != nil {
			return err
		}
		// One traffic wave per slice once the election has settled, so the
		// submissions spread across the run instead of front-loading. The
		// tail stays quiet: the last waves need wall time to commit.
		if wave < traffic && f.GlobalLeader() != star.None && time.Until(deadline) > 3*time.Second {
			for shard := 0; shard < s; shard++ {
				if err := f.Broadcast(shard, wave%m, int64(shard)*1_000_000+int64(wave)); err != nil {
					return err
				}
				submitted++
			}
			wave++
		}
		if time.Since(lastStatus) >= time.Second {
			lastStatus = time.Now()
			fmt.Printf("STATUS t=%v global=%d gseq=%d\n", time.Since(start).Round(100*time.Millisecond),
				f.GlobalLeader(), len(f.GlobalSequence()))
		}
	}

	rep := f.Report()
	rep.Timeline = nil
	out := fedReport{Report: *rep}
	if traffic > 0 {
		seq := f.GlobalSequence()
		out.Lanes = &laneVerdict{Submitted: submitted, GSeq: len(seq),
			LogHash: fmt.Sprintf("%016x", harness.GlobalHash(seq)), LogAgree: harness.GlobalAgree(f, seq)}
	}
	fmt.Println(verdictLine("FEDREPORT", out))
	if l := out.Lanes; l != nil && l.GSeq != l.Submitted {
		return fmt.Errorf("global lane committed %d of %d submissions", l.GSeq, l.Submitted)
	}
	if l := out.Lanes; l != nil && !l.LogAgree {
		return fmt.Errorf("members disagree on the global sequence")
	}
	fr := rep.Federation
	if fr.GlobalLeader == star.None {
		return fmt.Errorf("run ended with no global leader")
	}
	if fr.TotalViolations != 0 {
		return fmt.Errorf("%d federation invariant violations", fr.TotalViolations)
	}
	return nil
}

// launcher forks and supervises the member processes.
type launcher struct {
	topoPath     string
	chaosPath    string
	deadline     time.Time
	restartDelay time.Duration

	mu      sync.Mutex
	procs   map[int]*exec.Cmd    // live child handle per member
	reports map[int]memberReport // latest REPORT per member
	killed  map[int]int          // intentional SIGKILLs not yet consumed by a re-exec
	failed  bool                 // some child exited abnormally (not by our kill)
}

// runLauncher is spawn mode: one OS process per member, kill-schedule
// execution, REPORT aggregation. Returns the process exit status.
func runLauncher(topo *topology, topoPath string, deadline time.Time, kills killList, restartDelay time.Duration, chaosPath string) int {
	for _, a := range topo.Addrs {
		if strings.HasSuffix(a, ":0") {
			fatal(fmt.Errorf("spawn mode needs explicit ports, got %q (members in other processes must know where to dial)", a))
		}
	}
	for _, k := range kills {
		if k.id < 0 || k.id >= topo.N {
			fatal(fmt.Errorf("-kill member %d out of range for n=%d", k.id, topo.N))
		}
	}
	if chaosPath != "" {
		// Fail on an unreadable or malformed schedule before forking N
		// children that would each rediscover it.
		if _, err := loadChaos(chaosPath); err != nil {
			fatal(err)
		}
	}
	l := &launcher{
		topoPath:     topoPath,
		chaosPath:    chaosPath,
		deadline:     deadline,
		restartDelay: restartDelay,
		procs:        make(map[int]*exec.Cmd),
		reports:      make(map[int]memberReport),
		killed:       make(map[int]int),
	}

	var timers []*time.Timer
	for _, k := range kills {
		k := k
		timers = append(timers, time.AfterFunc(k.at, func() { l.kill(k.id) }))
	}
	var wg sync.WaitGroup
	for id := 0; id < topo.N; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			l.superviseMember(id)
		}(id)
	}
	wg.Wait()
	for _, t := range timers {
		t.Stop()
	}

	// Aggregate: the cluster agrees when every member's final REPORT names
	// the same leader and none was still undecided.
	l.mu.Lock()
	defer l.mu.Unlock()
	agreed := !l.failed && len(l.reports) == topo.N
	leader := -1
	var restores, fallbacks, violations uint64
	for id := 0; id < topo.N; id++ {
		r, ok := l.reports[id]
		if !ok {
			fmt.Printf("launcher: member %d produced no REPORT\n", id)
			agreed = false
			continue
		}
		restores += r.Report.Recovery.Restores
		fallbacks += r.Report.Recovery.Fallbacks
		if r.Report.Chaos != nil {
			violations += r.Report.Chaos.TotalViolations
		}
		if !r.Agreed {
			agreed = false
			continue
		}
		if leader == -1 {
			leader = r.Leader
		} else if r.Leader != leader {
			agreed = false
		}
	}
	if leader < 0 {
		agreed = false
	}
	fmt.Printf("CLUSTER agreed=%v leader=%d restores=%d fallbacks=%d chaos_violations=%d\n",
		agreed, leader, restores, fallbacks, violations)
	if !agreed || violations != 0 {
		return 1
	}
	return 0
}

// superviseMember runs member id's process, re-execing it after each
// intentional SIGKILL until the deadline passes.
func (l *launcher) superviseMember(id int) {
	for {
		args := []string{
			"-topo", l.topoPath,
			"-member", strconv.Itoa(id),
			"-until", strconv.FormatInt(l.deadline.UnixMilli(), 10),
		}
		if l.chaosPath != "" {
			args = append(args, "-chaos", l.chaosPath)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Printf("launcher: member %d: %v\n", id, err)
			l.mu.Lock()
			l.failed = true
			l.mu.Unlock()
			return
		}
		l.mu.Lock()
		l.procs[id] = cmd
		l.mu.Unlock()

		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Printf("[m%d] %s\n", id, line)
			if rep, ok := decodeReport(line); ok {
				l.mu.Lock()
				l.reports[id] = rep
				l.mu.Unlock()
			}
		}
		err = cmd.Wait()

		l.mu.Lock()
		delete(l.procs, id)
		wasKilled := l.killed[id] > 0
		if wasKilled {
			l.killed[id]--
		} else if err != nil {
			fmt.Printf("launcher: member %d exited: %v\n", id, err)
			l.failed = true
		}
		l.mu.Unlock()

		// Re-exec after an intentional kill (the machine "comes back");
		// anything else — clean finish or a real failure — ends supervision.
		if !wasKilled || time.Until(l.deadline) <= l.restartDelay {
			return
		}
		time.Sleep(l.restartDelay)
	}
}

// kill SIGKILLs member id's current process: no shutdown path runs, exactly
// like pulling the machine's plug mid-protocol.
func (l *launcher) kill(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cmd := l.procs[id]
	if cmd == nil || cmd.Process == nil {
		return
	}
	l.killed[id]++
	fmt.Printf("launcher: SIGKILL member %d (pid %d)\n", id, cmd.Process.Pid)
	if err := cmd.Process.Kill(); err != nil {
		fmt.Printf("launcher: kill member %d: %v\n", id, err)
		l.killed[id]--
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starnet:", err)
	os.Exit(1)
}
