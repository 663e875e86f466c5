package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/netwire"
	"repro/internal/proc"
	"repro/internal/rounds"
	rt "repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/wire"
	"repro/star"
)

// perLayer lists the metrics of single layers (layer = module name before
// the dot), printed by a traced run. Counters (*_per_op, breaker_opens,
// ballots_per_commit) come from the traced workload's public Metrics() and
// Report() and read 0 on a workload that does not exercise the layer; probe
// costs (ns_per_*, us_per_*) come from the probes below, which do not
// depend on the workload and run once per traced run. BENCHMARK.json repeats
// the list.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_event_heap2k", "ns"},
	{"netsim.msgs_per_op", "count"},
	{"netsim.ns_per_delivery_n5", "ns"},
	{"netsim.ns_per_delivery_n251", "ns"},
	{"scenario.gate_held_per_op", "count"},
	{"scenario.ns_per_delay_draw", "ns"},
	{"core.ns_per_alive_n5", "ns"},
	{"core.ns_per_alive_n251", "ns"},
	{"core.ns_per_suspicion_n251", "ns"},
	{"core.rounds_per_op", "count"},
	{"core.susp_incr_per_op", "count"},
	{"rounds.ns_per_row_claim", "ns"},
	{"rounds.evictions_per_op", "count"},
	{"wire.ns_per_alive_cycle_n5", "ns"},
	{"wire.ns_per_alive_cycle_n251", "ns"},
	{"wire.alive_msgs_per_op", "count"},
	{"wire.suspicion_msgs_per_op", "count"},
	{"netwire.ns_per_encode_alive_n5", "ns"},
	{"netwire.ns_per_decode_alive_n5", "ns"},
	{"netwire.ns_per_encode_alive_n251", "ns"},
	{"netwire.ns_per_decode_alive_n251", "ns"},
	{"tcpnet.us_per_frame_loopback", "us"},
	{"tcpnet.frames_per_s", "1/s"},
	{"tcpnet.dropped_per_op", "count"},
	{"tcpnet.breaker_opens", "count"},
	{"consensus.us_per_decide_n5", "us"},
	{"consensus.ballots_per_commit", "count"},
	{"abcast.us_per_tick_contents0", "us"},
	{"abcast.us_per_tick_contents30k", "us"},
	{"abcast.failover_commit_ms_p50", "ms"},
	{"journal.ns_per_append_mem", "ns"},
	{"journal.us_per_append_file", "us"},
	{"journal.us_per_load_file", "us"},
	{"journal.snapshots_per_op", "count"},
	{"journal.restores_per_op", "count"},
	{"runtime.ns_per_delivery", "ns"},
	{"star.new_us_n5", "us"},
	{"star.new_ms_n251", "ms"},
	{"star.report_us", "us"},
	{"core.share_est_pct", "%"},
	{"sim_netsim.share_est_pct", "%"},
	{"star.residual_pct", "%"},
	{"bench.cpu_ms_per_op", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.raw_op_ms_p50", "ms"},
	{"bench.raw_op_ms_p90", "ms"},
}

// counterMetrics fills the per-op counters of a traced workload pass; tcp
// says which transport's link counters the pass read.
func counterMetrics(m map[string]float64, c counters, ops float64, tcp bool) {
	per := func(i counter) float64 { return float64(c[i]) / ops }
	if tcp {
		m["tcpnet.dropped_per_op"] = per(ctrDropped)
		m["tcpnet.breaker_opens"] = float64(c[ctrBreakerOpens])
	} else {
		m["sim.events_per_op"] = per(ctrEvents)
		m["netsim.msgs_per_op"] = per(ctrMsgs)
		m["scenario.gate_held_per_op"] = per(ctrGateHeld)
	}
	m["core.rounds_per_op"] = per(ctrRounds)
	m["core.susp_incr_per_op"] = per(ctrSuspIncr)
	m["rounds.evictions_per_op"] = per(ctrEvictions)
	m["wire.alive_msgs_per_op"] = per(ctrAlives)
	m["wire.suspicion_msgs_per_op"] = per(ctrSuspicions)
	m["journal.snapshots_per_op"] = per(ctrSnapshots)
	m["journal.restores_per_op"] = per(ctrRestores)
	if c[ctrCommits] > 0 {
		m["consensus.ballots_per_commit"] = float64(c[ctrBallots]) / float64(c[ctrCommits])
	}
}

// shareMetrics explains a simulator workload's time as a sum: each layer's
// probed unit cost times the count the workload's counters report, as a
// share of the untraced pass's wall time (the simulator share adds the
// scenario's delay draws, which the netsim probe's trivial policy leaves
// out). What the two estimates leave is the façade's residual: gates and
// adversaries, checkers, sampling, construction, reports, GC. Deliveries split
// into ALIVE fan-out (n-1 per broadcast) and the rest, charged at the
// SUSPICION cost (probed at n=251 only; the n=5 rest is charged as ALIVEs).
func shareMetrics(m, probes map[string]float64, workload string, c counters, passNS float64) {
	size, n, restCost := "n5", 5.0, probes["core.ns_per_alive_n5"]
	if workload == "sim-scale-n251" {
		size, n, restCost = "n251", scaleN, probes["core.ns_per_suspicion_n251"]
	}
	delivered := float64(c[ctrDelivered])
	alive := min(float64(c[ctrAlives])*(n-1), delivered)
	coreNS := probes["core.ns_per_alive_"+size]*alive + restCost*(delivered-alive)
	netNS := probes["netsim.ns_per_delivery_"+size]*delivered + probes["scenario.ns_per_delay_draw"]*float64(c[ctrMsgs])
	m["core.share_est_pct"] = 100 * coreNS / passNS
	m["sim_netsim.share_est_pct"] = 100 * netNS / passNS
	m["star.residual_pct"] = 100 - m["core.share_est_pct"] - m["sim_netsim.share_est_pct"]
}

// probeReps is how often each CPU-bound probe body runs; the best run is
// reported, for the reason bestOf gives.
const probeReps = 3

// timed runs body probeReps times, each under its own span, and returns the
// best nanoseconds per unit of work; body returns the units it did. setup
// runs before each repetition, outside the span.
func timed(tr *tracer, layer, name string, setup func() (body func() int64)) float64 {
	best := 0.0
	for rep := range probeReps {
		body := setup()
		runtime.GC()
		id := tr.begin(layer, name)
		t0 := time.Now()
		units := body()
		d := time.Since(t0)
		tr.end(id, units)
		if per := float64(d) / float64(max(units, 1)); rep == 0 || per < best {
			best = per
		}
	}
	return best
}

// runProbes drives each layer's exported functions with workload-shaped
// inputs and returns the probed unit costs by per-layer metric name. It does
// not depend on the workload, so a traced run makes it once, under a tracer
// of its own whose spans go to bench/out/trace-probes.json.
func runProbes(st stamp) (map[string]float64, error) {
	tr := newTracer()
	sp := tr.begin("bench", "probes")
	p := map[string]float64{}

	p["sim.ns_per_event"] = timed(tr, "sim", "Scheduler.Run pending=40", probeScheduler(40, 400_000))
	p["sim.ns_per_event_heap2k"] = timed(tr, "sim", "Scheduler.Run pending=2000", probeScheduler(2000, 400_000))
	p["netsim.ns_per_delivery_n5"] = timed(tr, "netsim", "Network broadcast n=5", probeNetsim(5, 4000))
	p["netsim.ns_per_delivery_n251"] = timed(tr, "netsim", "Network broadcast n=251", probeNetsim(scaleN, 2))
	p["scenario.ns_per_delay_draw"] = timed(tr, "scenario", "Policy.Delay combined n=5", probeDelayDraw(st.Seed, 400_000))

	p["core.ns_per_alive_n5"], _ = probeCore(tr, 5, 20_000)
	p["core.ns_per_alive_n251"], p["core.ns_per_suspicion_n251"] = probeCore(tr, scaleN, 20)
	p["rounds.ns_per_row_claim"] = timed(tr, "rounds", "Window.Claim n=251", probeRowClaim(scaleN, 100_000))
	p["wire.ns_per_alive_cycle_n5"] = timed(tr, "wire", "AlivePool cycle n=5", probeAliveCycle(5, 1_000_000))
	p["wire.ns_per_alive_cycle_n251"] = timed(tr, "wire", "AlivePool cycle n=251", probeAliveCycle(scaleN, 400_000))

	for _, n := range []int{5, scaleN} {
		enc, dec := probeNetwire(n, 400_000)
		p[fmt.Sprintf("netwire.ns_per_encode_alive_n%d", n)] = timed(tr, "netwire", fmt.Sprintf("AppendFrame alive n=%d", n), enc)
		p[fmt.Sprintf("netwire.ns_per_decode_alive_n%d", n)] = timed(tr, "netwire", fmt.Sprintf("Pools.Decode alive n=%d", n), dec)
	}
	p["tcpnet.us_per_frame_loopback"] = timed(tr, "tcpnet", "ping-pong window=1", probeTCPNet(1, 4000)) / 1e3
	p["tcpnet.frames_per_s"] = 1e9 / timed(tr, "tcpnet", "ping-pong window=32", probeTCPNet(32, 40_000))
	p["runtime.ns_per_delivery"] = timed(tr, "runtime", "ping-pong window=32", probeRuntime(32, 100_000))

	p["consensus.us_per_decide_n5"] = timed(tr, "consensus", "Propose..Decided n=5", probeConsensus(2000)) / 1e3
	p["abcast.us_per_tick_contents0"], p["abcast.us_per_tick_contents30k"] = probeAbcastTick(tr, 30_000)
	p["abcast.failover_commit_ms_p50"] = probeAbcastFailover(st.Seed, tr)

	p["journal.ns_per_append_mem"] = timed(tr, "journal", "MemStore.Save n=5", probeJournalMem(1_000_000))
	appendNS, loadNS := probeJournalFile(tr, outDir)
	p["journal.us_per_append_file"], p["journal.us_per_load_file"] = appendNS/1e3, loadNS/1e3

	p["star.new_us_n5"], p["star.report_us"] = probeStarN5(st.Seed, tr)
	p["star.new_ms_n251"] = timed(tr, "star", "New n=251", func() func() int64 {
		return func() int64 {
			c, err := scaleCluster(nil)
			if err == nil {
				c.Close()
			}
			return 1
		}
	}) / 1e6
	tr.end(sp, 1)
	return p, tr.write("probes", st)
}

// rescheduler is a sim.Handler that re-arms itself at a random distance, the
// shape of a protocol timer or a multicast leg.
type rescheduler struct {
	s *sim.Scheduler
	r *sim.Rand
}

func (h *rescheduler) OnSimEvent(kind uint8, a uint64, _ any) {
	h.s.AfterTyped(h.r.Duration(time.Microsecond, 10*time.Millisecond), h, kind, a, nil)
}

// probeScheduler runs about events typed events through a queue holding
// pending self-rescheduling entries (40 is an n=5 cluster's timers plus
// in-flight carriers; 2000 an n=251 cluster's).
func probeScheduler(pending int, events int64) func() func() int64 {
	return func() func() int64 {
		s := sim.NewScheduler()
		h := &rescheduler{s: s, r: sim.NewRand(1)}
		for i := range pending {
			s.AfterTyped(time.Duration(i)*time.Microsecond, h, 1, uint64(i), nil)
		}
		horizon := sim.Time(events * int64(5*time.Millisecond) / int64(pending))
		return func() int64 { return int64(s.Run(horizon)) }
	}
}

// beacon broadcasts a heartbeat to everybody every period and discards what
// it receives: the traffic shape of the Ω protocols without their logic.
type beacon struct {
	env  proc.Env
	pool wire.HeartbeatPool
	seq  int64
}

const beaconPeriod = 10 * time.Millisecond

func (b *beacon) Start(env proc.Env)     { b.env = env; env.SetTimer(0, beaconPeriod) }
func (b *beacon) OnMessage(proc.ID, any) {}
func (b *beacon) OnTimer(proc.TimerKey) {
	b.seq++
	hb := b.pool.Get()
	hb.Seq = b.seq
	proc.BroadcastAll(b.env, hb)
	b.env.SetTimer(0, beaconPeriod)
}

// probeNetsim runs n beacons for the given number of periods on a simulated
// network with uniform 1-8 ms delays; the unit is one delivery (so the cost
// includes the scheduler events that carry it).
func probeNetsim(n int, periods int) func() func() int64 {
	return func() func() int64 {
		sched := sim.NewScheduler()
		net, err := netsim.New(sched, netsim.Config{N: n, Seed: 1, Policy: netsim.DelayFunc(
			func(_ *netsim.Envelope, r *sim.Rand) time.Duration {
				return r.Duration(time.Millisecond, 8*time.Millisecond)
			})})
		if err != nil {
			panic(err)
		}
		for id := range n {
			net.Register(id, &beacon{})
		}
		net.StartAll()
		sched.RunFor(3 * beaconPeriod) // fill the envelope and carrier pools
		before := net.Stats().Delivered
		return func() int64 {
			sched.RunFor(time.Duration(periods) * beaconPeriod)
			return int64(net.Stats().Delivered - before)
		}
	}
}

// probeDelayDraw draws link delays from the Combined scenario's policy for
// ALIVE messages of advancing rounds on rotating links.
func probeDelayDraw(seed uint64, draws int64) func() func() int64 {
	return func() func() int64 {
		sc, err := scenario.Combined(scenario.Params{N: 5, T: 2, Seed: seed})
		if err != nil {
			panic(err)
		}
		r := sim.NewRand(seed)
		var pool wire.AlivePool
		msg := pool.Get(5)
		ev := netsim.Envelope{Payload: msg}
		return func() int64 {
			for i := range draws {
				msg.RN = i/20 + 1
				ev.Seq, ev.From, ev.To = uint64(i), int(i%5), int((i+1+i/5)%5)
				ev.SentAt = sim.Time(i * int64(time.Millisecond) / 2)
				sc.Policy.Delay(&ev, r)
			}
			return draws
		}
	}
}

// probeCore runs the Ω protocol itself — n-1 core.Nodes on the bus, process
// n-1 silent as a crashed one would be — through whole rounds with no
// simulator underneath: every node's ALIVE timer fires and the wave of
// (n-1)(n-2) ALIVEs is delivered, then every node's round timer fires and
// the wave of (n-1)^2 SUSPICIONs naming the silent process is delivered.
// Deliveries visit a different receiver each time, as in a real run, so at
// n=251 the per-receiver state does not stay in cache. It returns the best
// nanoseconds per ALIVE and per SUSPICION delivered (sending, pooled payload
// cycles and round bookkeeping included).
func probeCore(tr *tracer, n, roundsN int) (aliveNS, suspNS float64) {
	for rep := range probeReps {
		b := newBus(n)
		nodes := make([]*core.Node, n-1)
		for id := range nodes {
			node, err := core.NewNode(id, core.Config{N: n, T: (n - 1) / 2, Retention: star.DefaultRetention, WindowSlots: 2 * star.DefaultRetention})
			if err != nil {
				panic(err)
			}
			nodes[id] = node
			b.register(id, node)
		}
		b.pump() // round 1's ALIVEs, sent by Start
		runtime.GC()
		id := tr.begin("core", fmt.Sprintf("Node rounds n=%d", n))
		var aliveD, suspD time.Duration
		var alives, susps int64
		for range roundsN {
			t0 := time.Now()
			for _, node := range nodes {
				node.OnTimer(core.TimerAlive)
			}
			alives += b.pump()
			t1 := time.Now()
			for _, node := range nodes {
				node.OnTimer(core.TimerRound)
			}
			susps += b.pump()
			aliveD += t1.Sub(t0)
			suspD += time.Since(t1)
		}
		tr.end(id, alives+susps)
		if a := float64(aliveD) / float64(alives); rep == 0 || a < aliveNS {
			aliveNS = a
		}
		if s := float64(suspD) / float64(susps); rep == 0 || s < suspNS {
			suspNS = s
		}
		for id, node := range nodes {
			if _, rRN := node.Rounds(); rRN != int64(roundsN)+1 {
				panic(fmt.Sprintf("core probe: node %d at receiving round %d after %d rounds", id, rRN, roundsN))
			}
		}
	}
	return aliveNS, suspNS
}

// probeRowClaim advances a round window the way a process at the frontier
// does: claim the next round's row, begin both parts, complete the round,
// prune behind the retention horizon.
func probeRowClaim(n int, claims int64) func() func() int64 {
	return func() func() int64 {
		w := rounds.New(n, 2*star.DefaultRetention)
		return func() int64 {
			for rn := int64(1); rn <= claims; rn++ {
				horizon := max(rn-star.DefaultRetention, 1)
				row := w.Claim(rn, rn, horizon)
				row.BeginRec(0)
				row.BeginSusp()
				w.CompleteRec(rn)
				if rn%16 == 0 {
					w.Prune(rn, horizon)
				}
			}
			return claims
		}
	}
}

// probeAliveCycle is one ALIVE payload's life: out of the pool, snapshot
// filled, one reference taken and released, back in the pool.
func probeAliveCycle(n int, cycles int64) func() func() int64 {
	return func() func() int64 {
		var pool wire.AlivePool
		levels := make([]int64, n)
		return func() int64 {
			for i := range cycles {
				m := pool.Get(n)
				m.RN = i
				copy(m.SuspLevel, levels)
				m.Retain()
				m.Recycle()
			}
			return cycles
		}
	}
}

// probeNetwire returns the encode and decode probes for an ALIVE of n levels.
func probeNetwire(n int, frames int64) (enc, dec func() func() int64) {
	var pool wire.AlivePool
	msg := pool.Get(n)
	msg.RN = 12345
	for k := range msg.SuspLevel {
		msg.SuspLevel[k] = int64(k % 7)
	}
	enc = func() func() int64 {
		var buf []byte
		return func() int64 {
			for range frames {
				var err error
				if buf, err = netwire.AppendFrame(buf[:0], msg); err != nil {
					panic(err)
				}
			}
			return frames
		}
	}
	dec = func() func() int64 {
		frame, err := netwire.AppendFrame(nil, msg)
		if err != nil {
			panic(err)
		}
		body := frame[4:] // what ReadFrame returns: the length prefix is stripped
		pools := &netwire.Pools{}
		return func() int64 {
			for range frames {
				m, err := pools.Decode(body)
				if err != nil {
					panic(err)
				}
				rc := m.(wire.Recyclable)
				rc.Retain()
				rc.Recycle()
			}
			return frames
		}
	}
	return enc, dec
}

// echo is the ping-pong node of the transport probes: process 0 keeps window
// heartbeats in flight to process 1, which returns each one; done closes
// after frames deliveries at process 0.
type echo struct {
	env    proc.Env
	pool   wire.HeartbeatPool
	left   int64
	window int
	done   chan struct{}
}

func (e *echo) Start(env proc.Env)    { e.env = env }
func (e *echo) OnTimer(proc.TimerKey) {}
func (e *echo) send() {
	hb := e.pool.Get()
	e.env.Send(1-e.env.ID(), hb)
}

func (e *echo) OnMessage(proc.ID, any) {
	if e.env.ID() == 1 {
		e.send()
		return
	}
	if e.left--; e.left == 0 {
		close(e.done)
	} else if e.left >= int64(e.window) {
		e.send()
	}
}

// pingPong is the measured body shared by the two wall-clock transports:
// inject the window at process 0 under its callback lock, wait for the last
// echo. The unit is one frame (there and back is two).
func pingPong(nodes [2]*echo, inspect func(id proc.ID, f func()), window int, trips int64) int64 {
	nodes[0].left, nodes[0].window, nodes[0].done = trips, window, make(chan struct{})
	inspect(0, func() {
		for range window {
			nodes[0].send()
		}
	})
	select {
	case <-nodes[0].done:
	case <-time.After(30 * time.Second):
		panic("transport probe: echoes stopped arriving")
	}
	return 2 * trips
}

// probePingPong builds a two-process cluster with start, dials both links
// with a short warm-up, and measures window frames kept in flight for trips
// round trips.
func probePingPong(window int, trips int64, start func(nodes [2]*echo) (inspect func(proc.ID, func()), stop func())) func() func() int64 {
	return func() func() int64 {
		nodes := [2]*echo{{}, {}}
		inspect, stop := start(nodes)
		pingPong(nodes, inspect, 1, 10)
		return func() int64 {
			defer stop()
			return pingPong(nodes, inspect, window, trips)
		}
	}
}

func probeTCPNet(window int, trips int64) func() func() int64 {
	return probePingPong(window, trips, func(nodes [2]*echo) (func(proc.ID, func()), func()) {
		c, err := tcpnet.New(tcpnet.Config{N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
		if err != nil {
			panic(err)
		}
		c.Register(0, nodes[0])
		c.Register(1, nodes[1])
		if err := c.Start(); err != nil {
			panic(err)
		}
		return c.Inspect, c.Stop
	})
}

func probeRuntime(window int, trips int64) func() func() int64 {
	return probePingPong(window, trips, func(nodes [2]*echo) (func(proc.ID, func()), func()) {
		c, err := rt.New(rt.Config{N: 2, Delay: func(proc.ID, proc.ID, any) time.Duration { return 0 }})
		if err != nil {
			panic(err)
		}
		c.Register(0, nodes[0])
		c.Register(1, nodes[1])
		c.Start()
		return c.Inspect, c.Stop
	})
}

// probeConsensus decides instances one at a time among five consensus nodes
// on the bus with process 0 the fixed leader: Propose at the leader, pump
// the ballot to quiescence, check every node learned the value.
func probeConsensus(instances int64) func() func() int64 {
	return func() func() int64 {
		b := newBus(5)
		nodes := make([]*consensus.Node, 5)
		for id := range nodes {
			n, err := consensus.New(consensus.Config{N: 5, T: 2, Oracle: func() proc.ID { return 0 }})
			if err != nil {
				panic(err)
			}
			nodes[id] = n
			b.register(id, n)
		}
		return func() int64 {
			for inst := range instances {
				nodes[0].Propose(inst, inst+7)
				b.pump()
			}
			for id, n := range nodes {
				if v, ok := n.Decided(instances - 1); !ok || v != instances+6 {
					panic(fmt.Sprintf("consensus probe: node %d decided (%d, %v) for the last instance", id, v, ok))
				}
			}
			return instances
		}
	}
}

// probeAbcastTick measures the leader's propose tick on an empty lane and on
// one that has already ordered filled broadcasts (the tick scans everything
// the lane ever carried). Returns microseconds per tick for each.
func probeAbcastTick(tr *tracer, filled int) (emptyUS, filledUS float64) {
	setup := func(fill int) func() func() int64 {
		return func() func() int64 {
			b := newBus(5)
			lanes := make([]*abcast.Node, 5)
			for id := range lanes {
				ab, cons, err := abcast.NewPair(abcast.Config{N: 5, T: 2, Oracle: func() proc.ID { return 0 }})
				if err != nil {
					panic(err)
				}
				mux := proc.NewMux()
				mux.AddLane(cons)
				mux.AddLane(ab)
				lanes[id] = ab
				b.register(id, mux)
			}
			for i := range fill {
				lanes[i%5].Broadcast(int64(i))
			}
			b.pump()
			lanes[0].OnTimer(0) // the leader sequences everything pending
			b.pump()
			if got := len(lanes[4].Log()); got != fill {
				panic(fmt.Sprintf("abcast probe: follower delivered %d of %d", got, fill))
			}
			ticks := int64(200)
			return func() int64 {
				for range ticks {
					lanes[0].OnTimer(0)
					b.pump()
				}
				return ticks
			}
		}
	}
	emptyUS = timed(tr, "abcast", "leader tick contents=0", setup(0)) / 1e3
	filledUS = timed(tr, "abcast", fmt.Sprintf("leader tick contents=%d", filled), setup(filled)) / 1e3
	return emptyUS, filledUS
}

// probeAbcastFailover measures, over loopback TCP, how long a broadcast
// submitted right after the leader is killed takes to reach every survivor:
// three clusters, two kills each, median in milliseconds.
func probeAbcastFailover(seed uint64, tr *tracer) float64 {
	var ms []float64
	for i := range 3 {
		c, _, _, err := coldStart(splitmix(seed+1000+uint64(i)), 0, tr)
		if err != nil {
			continue
		}
		for kill := range 2 {
			var victim int
			if !waitFor(failoverLimit, func() bool { l, ok := c.Agreement(); victim = l; return ok }) {
				break
			}
			live, submitter := 0, 0
			for p := range tcpN {
				if !c.Crashed(p) && p != victim {
					live++
					submitter = p
				}
			}
			payload := int64(-2 - kill)
			id := tr.begin("abcast", "commit after leader kill")
			t0 := time.Now()
			c.Crash(victim)
			c.Broadcast(submitter, payload)
			ok := waitFor(abcastLimit, func() bool {
				got := 0
				for p := range tcpN {
					if c.Crashed(p) {
						continue
					}
					for _, d := range c.Deliveries(p) {
						if d.Payload == payload {
							got++
						}
					}
				}
				return got >= live
			})
			tr.end(id, 1)
			if ok {
				ms = append(ms, float64(time.Since(t0))/1e6)
			}
		}
		c.Close()
	}
	if len(ms) == 0 {
		return 0
	}
	return median(ms)
}

func probeSnapshot(n int) *journal.Snapshot {
	return &journal.Snapshot{SRN: 1000, RRN: 990, MaxRoundSeen: 1001, Levels: make([]int64, n)}
}

func probeJournalMem(saves int64) func() func() int64 {
	return func() func() int64 {
		st := journal.NewMem()
		snap := probeSnapshot(5)
		return func() int64 {
			for i := range saves {
				snap.Proc, snap.SRN = int(i%5), i
				if err := st.Save(snap); err != nil {
					panic(err)
				}
			}
			return saves
		}
	}
}

// probeJournalFile appends records to a file journal under dir and then
// reopens it (the open-time scan that validates every record) and loads one
// process; returns nanoseconds per append and per reopen+load.
func probeJournalFile(tr *tracer, dir string) (appendNS, loadNS float64) {
	const records = 2000
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	path := filepath.Join(dir, "probe.journal")
	defer os.Remove(path)
	appendNS = timed(tr, "journal", "FileStore.Save n=5", func() func() int64 {
		os.Remove(path)
		st, err := journal.OpenFile(path)
		if err != nil {
			panic(err)
		}
		snap := probeSnapshot(5)
		return func() int64 {
			defer st.Close()
			for i := range int64(records) {
				snap.Proc, snap.SRN = int(i%5), i
				if err := st.Save(snap); err != nil {
					panic(err)
				}
			}
			return records
		}
	})
	loadNS = timed(tr, "journal", fmt.Sprintf("OpenFile+Load %d records", records), func() func() int64 {
		return func() int64 {
			const loads = 20
			for range loads {
				st, err := journal.OpenFile(path)
				if err != nil {
					panic(err)
				}
				if s, err := st.Load(3); err != nil || s == nil {
					panic(fmt.Sprintf("journal probe: load returned (%v, %v)", s, err))
				}
				st.Close()
			}
			return loads
		}
	})
	return appendNS, loadNS
}

// probeStarN5 measures the façade's own steps on the flagship n=5
// configuration: New, and Report after a 5 s virtual run.
func probeStarN5(seed uint64, tr *tracer) (newUS, reportUS float64) {
	opts := []star.Option{star.N(5), star.Resilience(2), star.Seed(seed)}
	newUS = timed(tr, "star", "New n=5", func() func() int64 {
		return func() int64 {
			const builds = 500
			for range builds {
				c, err := star.New(opts...)
				if err != nil {
					panic(err)
				}
				c.Close()
			}
			return builds
		}
	}) / 1e3
	reportUS = timed(tr, "star", "Report n=5 after 5s", func() func() int64 {
		c, err := star.New(opts...)
		if err != nil {
			panic(err)
		}
		if err := c.Run(5 * time.Second); err != nil {
			panic(err)
		}
		return func() int64 {
			const reports = 200
			for range reports {
				c.Report()
			}
			c.Close()
			return reports
		}
	}) / 1e3
	return newUS, reportUS
}
