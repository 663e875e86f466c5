package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/star"
)

const (
	tcpN = 5
	tcpT = 2

	// abcastRate is the open-loop submission rate; abcastLimit is how long
	// after its due time a broadcast may take to reach all five members
	// before it counts as failed.
	abcastRate  = 1000
	abcastLimit = 2 * time.Second
	abcastColds = 9

	// failoverLimit bounds both waits of a failover (initial agreement,
	// re-agreement after the kill); pollEvery is the resolution of every
	// polled wait.
	failoverLimit  = 2 * time.Second
	failoverSettle = 50 * time.Millisecond
	failoverRounds = 5
	pollEvery      = 250 * time.Microsecond
)

// Work counts at -seconds: the abcast window lasts seconds at abcastRate, and
// the failover loop builds 8 clusters (16 failovers) per second of budget.
func abcastOps(seconds int) int        { return seconds * abcastRate }
func failoverClusters(seconds int) int { return max(50, seconds*8) }

// tcpCluster builds an in-process five-member cluster on loopback sockets.
func tcpCluster(seed uint64, tr *tracer, extra ...star.Option) (*star.Cluster, error) {
	addrs := make([]string, tcpN)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	opts := append([]star.Option{star.N(tcpN), star.Resilience(tcpT), star.Seed(seed), star.Network(addrs)}, extra...)
	id := tr.begin("star", "New")
	c, err := star.New(opts...)
	tr.end(id, 1)
	return c, err
}

// waitFor polls cond every pollEvery until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// tracker records, per broadcast payload, when the last of the five members
// delivered it. Its deliver method is the cluster's onDeliver callback, which
// runs on the members' goroutines.
type tracker struct {
	mu     sync.Mutex
	counts []uint8
	doneAt []time.Time
	warm   int // deliveries of the warm-up payload (-1)
	left   int // payloads not yet delivered everywhere
}

func newTracker(n int) *tracker {
	return &tracker{counts: make([]uint8, n), doneAt: make([]time.Time, n), left: n}
}

func (t *tracker) deliver(_ int, d star.Delivery) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if d.Payload < 0 {
		t.warm++
		return
	}
	i := int(d.Payload)
	if i >= len(t.counts) {
		return // checked against the logs afterwards
	}
	t.counts[i]++
	if t.counts[i] == tcpN {
		t.doneAt[i] = now
		t.left--
	}
}

func (t *tracker) warmed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.warm >= tcpN
}

func (t *tracker) remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.left
}

// coldStart builds a cluster and waits until one broadcast has reached every
// member: the time from nothing to a lane that orders messages.
func coldStart(seed uint64, n int, tr *tracer) (*star.Cluster, *tracker, time.Duration, error) {
	t0 := time.Now()
	tk := newTracker(n)
	c, err := tcpCluster(seed, tr, star.WithAtomicBroadcast(tk.deliver))
	if err != nil {
		return nil, nil, 0, err
	}
	id := tr.begin("star", "Broadcast")
	err = c.Broadcast(0, -1)
	tr.end(id, 1)
	if err == nil && !waitFor(abcastLimit, tk.warmed) {
		err = fmt.Errorf("cold start: warm-up broadcast not delivered to all members within %v", abcastLimit)
	}
	if err != nil {
		c.Close()
		return nil, nil, 0, err
	}
	return c, tk, time.Since(t0), nil
}

// tcpResult is what either TCP workload hands to the reporter.
type tcpResult struct {
	attempted, failed int
	latMS             []float64 // per op; failed ops carry the limit
	setupMS           []float64
	lateMS            []float64 // open loop: how late each submission left
	window            roundCost
	ctr               counters
	errs              []error
}

func (r *tcpResult) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Errorf(format, args...))
}

// runAbcast runs tcp-abcast-n5: ops broadcasts submitted open-loop at
// abcastRate, round-robin over the members, each timed from its due time
// until the fifth member delivers it.
func runAbcast(seed uint64, ops int, tr *tracer) tcpResult {
	res := tcpResult{attempted: ops}
	for i := range abcastColds {
		c, _, took, err := coldStart(splitmix(seed+uint64(i)), 0, tr)
		if err != nil {
			res.errs = append(res.errs, err)
			return res
		}
		c.Close()
		res.setupMS = append(res.setupMS, float64(took)/1e6)
	}

	c, tk, _, err := coldStart(splitmix(seed), ops, tr)
	if err != nil {
		res.errs = append(res.errs, err)
		return res
	}
	defer c.Close()

	sp := tr.begin("bench", "window")
	runtime.GC()
	before := countersOf(c, nil)
	u0 := readUsage()
	start := u0.wall
	gap := time.Second / abcastRate
	res.lateMS = make([]float64, ops)
	for i := range ops {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		id := tr.begin("star", "Broadcast")
		res.lateMS[i] = float64(time.Since(due)) / 1e6
		err := c.Broadcast(i%tcpN, int64(i))
		tr.end(id, 1)
		if err != nil {
			res.errorf("broadcast %d: %w", i, err)
		}
	}
	lastDue := start.Add(time.Duration(ops-1) * gap)
	waitFor(time.Until(lastDue.Add(abcastLimit)), func() bool { return tk.remaining() == 0 })
	res.window = roundCost{cost: readUsage().since(u0), ops: ops}
	res.ctr = countersOf(c, nil)
	res.ctr.sub(before)
	res.ctr[ctrBallots] = c.Ballots()
	tr.end(sp, int64(ops))

	tk.mu.Lock()
	res.latMS = make([]float64, ops)
	for i := range ops {
		due := start.Add(time.Duration(i) * gap)
		lat := tk.doneAt[i].Sub(due)
		if tk.counts[i] < tcpN || lat > abcastLimit {
			res.failed++
			lat = abcastLimit
		}
		res.latMS[i] = float64(lat) / 1e6
	}
	tk.mu.Unlock()

	logs := make([][]star.Delivery, tcpN)
	for p := range logs {
		logs[p] = c.Deliveries(p)
	}
	res.ctr[ctrCommits] = uint64(len(logs[0]))
	if err := checkLogs(logs, ops); err != nil {
		res.errs = append(res.errs, err)
	}
	return res
}

// checkLogs verifies total order and exactly-once delivery: every member's
// log is the same sequence, holding the warm-up payload and each of the ops
// payloads exactly once.
func checkLogs(logs [][]star.Delivery, ops int) error {
	for p := 1; p < len(logs); p++ {
		if !slices.Equal(logs[p], logs[0]) {
			return fmt.Errorf("member %d delivered a different sequence than member 0 (%d vs %d entries)", p, len(logs[p]), len(logs[0]))
		}
	}
	seen := make([]bool, ops)
	warm := 0
	for _, d := range logs[0] {
		switch {
		case d.Payload == -1:
			warm++
		case d.Payload < 0 || d.Payload >= int64(ops):
			return fmt.Errorf("delivered payload %d was never broadcast", d.Payload)
		case seen[d.Payload]:
			return fmt.Errorf("payload %d delivered twice", d.Payload)
		default:
			seen[d.Payload] = true
		}
	}
	if warm != 1 {
		return fmt.Errorf("warm-up payload delivered %d times", warm)
	}
	if i := slices.Index(seen, false); i >= 0 {
		return fmt.Errorf("payload %d was never delivered", i)
	}
	return nil
}

// runFailover runs tcp-failover-n5: clusters fresh clusters, two leader
// kills each, each kill timed until the survivors agree on a live leader
// other than the victim.
func runFailover(seed uint64, clusters int, tr *tracer) tcpResult {
	res := tcpResult{attempted: 2 * clusters}
	runtime.GC()
	u0 := readUsage()
	for i := range clusters {
		sp := tr.begin("bench", fmt.Sprintf("cluster:%d", i))
		res.failoverCluster(splitmix(seed<<16|uint64(i)), tr)
		tr.end(sp, 2)
	}
	res.window = roundCost{cost: readUsage().since(u0), ops: res.attempted}
	return res
}

func (res *tcpResult) failoverCluster(seed uint64, tr *tracer) {
	t0 := time.Now()
	c, err := tcpCluster(seed, tr)
	if err != nil {
		res.errs = append(res.errs, err)
		res.failed += 2
		return
	}
	defer func() {
		res.ctr.add(countersOf(c, nil))
		id := tr.begin("star", "Close")
		c.Close()
		tr.end(id, 1)
	}()
	id := tr.begin("bench", "wait:rounds")
	ok := waitFor(failoverLimit, func() bool {
		for p := range tcpN {
			if _, r := c.Rounds(p); r < failoverRounds {
				return false
			}
		}
		return true
	})
	tr.end(id, 1)
	if !ok {
		res.errorf("cluster seed %d: members did not reach round %d within %v", seed, failoverRounds, failoverLimit)
		res.failed += 2
		return
	}
	res.setupMS = append(res.setupMS, float64(time.Since(t0))/1e6)

	for kill := range 2 {
		var victim int
		id := tr.begin("bench", "wait:agreement")
		ok := waitFor(failoverLimit, func() bool {
			l, ok := c.Agreement()
			victim = l
			return ok
		})
		tr.end(id, 1)
		if !ok {
			res.errorf("cluster seed %d: no agreement to kill within %v", seed, failoverLimit)
			res.failed += 2 - kill
			return
		}
		id = tr.begin("star", "Crash")
		tKill := time.Now()
		err := c.Crash(victim)
		tr.end(id, 1)
		if err != nil {
			res.errs = append(res.errs, err)
			res.failed += 2 - kill
			return
		}
		id = tr.begin("bench", "wait:failover")
		ok = waitFor(failoverLimit, func() bool {
			l, ok := c.Agreement()
			return ok && l != victim && !c.Crashed(l)
		})
		took := time.Since(tKill)
		tr.end(id, 1)
		if !ok {
			res.failed++
			took = failoverLimit
		}
		res.latMS = append(res.latMS, float64(took)/1e6)
		if kill == 0 {
			time.Sleep(failoverSettle)
		}
	}
}
