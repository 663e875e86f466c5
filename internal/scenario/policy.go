package scenario

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
)

// asyncDelay draws an ordinary asynchronous link delay: a uniform base with
// occasional heavy-tail spikes. With Drift > 0 the spikes grow linearly in
// virtual time, realizing genuinely unbounded asynchrony (delays are finite
// — links stay reliable — but exceed every constant eventually). With
// AdversarialOrder the base becomes very fast, so that unconstrained
// messages win reception races against δ-timely ones. Per-link outages (see
// Params) stack on top. Self-addressed messages take a near-zero local hop.
func asyncDelay(p Params, ev *netsim.Envelope, r *sim.Rand) time.Duration {
	if ev.From == ev.To {
		return r.Duration(0, p.BaseLo/2)
	}
	var d time.Duration
	if p.AdversarialOrder {
		d = r.Duration(p.Delta/20, p.Delta/10)
	} else {
		d = r.Duration(p.BaseLo, p.BaseHi)
	}
	if r.Bool(p.SpikeProb) {
		d += r.Duration(p.SpikeLo, p.SpikeHi) + drift(p, ev.SentAt)
	}
	if o := outageDelay(p, ev); o > d {
		d = o
	}
	return d
}

// drift returns the unbounded-asynchrony surcharge for a message sent at τ.
func drift(p Params, sentAt sim.Time) time.Duration {
	if p.Drift == 0 {
		return 0
	}
	return time.Duration(float64(p.Drift) * (float64(sentAt) / float64(time.Second)))
}

// outageDelay returns the residual outage delay for a message sent during
// its link's current outage window, or 0. Windows recur every OutagePeriod
// with a deterministic per-link phase; their duration starts at OutageBase,
// doubles every four periods and is capped at OutagePeriod/2 (so that links
// are up at least half the time and round progress is never starved).
func outageDelay(p Params, ev *netsim.Envelope) time.Duration {
	if p.OutagePeriod <= 0 || p.OutageBase <= 0 {
		return 0
	}
	// Deterministic per-link phase in [0, OutagePeriod).
	h := p.Seed ^ uint64(ev.From)*0x9e3779b97f4a7c15 ^ uint64(ev.To)*0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	phase := time.Duration(h % uint64(p.OutagePeriod))
	since := time.Duration(ev.SentAt) - phase
	if since < 0 {
		return 0
	}
	k := int64(since / p.OutagePeriod)
	into := since % p.OutagePeriod
	width := p.OutageBase << uint(min(k/4, 24))
	if width > p.OutagePeriod/2 {
		width = p.OutagePeriod / 2
	}
	if into >= width {
		return 0
	}
	return width - into
}

// The victim of the order/lose adversary is the CURRENT LEADER as observed
// through the leader probe (SetLeaderProbe). Chasing the leader is the
// canonical adversary for Ω constructions: any fair (e.g. round-robin)
// attack raises every counter at the same rate and preserves the argmin, so
// the initial leader keeps winning; chasing the minimum forces churn until
// some process is protected from the chase — which is exactly what the star
// assumption provides for its center. The probe returns proc.None when no
// observation is available (attack disabled).

// starPolicy implements netsim.DelayPolicy from a star schedule: the
// center's round-tagged messages get mode-dependent delays, everything else
// gets base asynchronous delays (plus the order adversary's victim attack).
type starPolicy struct {
	params   Params
	schedule StarSchedule

	// timeoutProbe feeds the ModeLose adversary (see SetTimeoutProbe).
	timeoutProbe func() time.Duration

	// leaderProbe feeds the leader-chasing adversary (SetLeaderProbe).
	leaderProbe func() proc.ID

	// roundProbe mirrors the gate's round probe (SetRoundProbe); the
	// policy uses it to pace unconstrained round-tagged messages.
	roundProbe func(proc.ID) int64

	// loseViaGate is set when a round probe is installed: the gate then
	// enforces lose constraints by order, and the policy reverts the
	// targeted messages to ordinary asynchronous delays.
	loseViaGate bool
}

// chasedLeader returns the adversary's current target, or proc.None.
func (sp *starPolicy) chasedLeader() proc.ID {
	if sp.leaderProbe == nil || (!sp.params.AdversarialOrder && !sp.params.RotateLoseVictims) {
		return proc.None
	}
	return sp.leaderProbe()
}

// Delay implements netsim.DelayPolicy.
func (sp *starPolicy) Delay(ev *netsim.Envelope, r *sim.Rand) time.Duration {
	p := sp.params
	if ev.From == ev.To {
		return r.Duration(0, p.BaseLo/2)
	}
	rn, tagged := RoundTag(ev.Payload)
	if tagged && ev.From == sp.schedule.Center() {
		switch sp.schedule.Mode(rn, ev.To) {
		case ModeTimely:
			// δ-timely (Definition 1), with the §7 g extension when
			// set. The adversary uses the whole budget: timeliness
			// must not accidentally imply winning.
			var d time.Duration
			if p.AdversarialOrder {
				d = r.Duration(p.Delta*8/10, p.Delta)
			} else {
				d = r.Duration(p.Delta/4, p.Delta)
			}
			if p.G != nil {
				d += p.G(rn)
			}
			return d
		case ModeLose:
			if sp.loseViaGate {
				return asyncDelay(p, ev, r)
			}
			return sp.loseDelay(r)
		case ModeWinning:
			// Order is enforced by the gate; the delay itself is
			// ordinary asynchrony.
			return asyncDelay(p, ev, r)
		}
	}
	// The leader chase. A chased center is only attackable on its
	// unconstrained (ModeNone) messages — its Timely/Winning/Lose
	// messages returned above — which is how the star neutralizes the
	// chase. Lose-chasing is enforced by the gate when the round probe
	// is wired; order-chasing merely loses reception races.
	if tagged && ev.From == sp.chasedLeader() && !p.RotateLoseVictims {
		// Order chase: lose reception races, and still suffer the
		// link's outages (the chase must not shield from them).
		d := r.Duration(2*p.Delta, 4*p.Delta) + drift(p, ev.SentAt)
		if o := outageDelay(p, ev); o > d {
			d = o
		}
		return d
	}
	d := asyncDelay(p, ev, r)
	if tagged && p.RotateLoseVictims {
		if !sp.loseViaGate && ev.From == sp.chasedLeader() {
			return sp.loseDelay(r)
		}
		// Pace unconstrained round-tagged messages to arrive near
		// their receiver's processing round. Task T1 broadcasts every
		// β while receiving rounds advance once per (growing) timeout,
		// so un-paced messages arrive ever further ahead of their
		// round; the gate's hold decisions would then be made with an
		// ever-staler leader observation and the chase could never
		// catch the current minimum (stable plateaus grow
		// multiplicatively). Pacing — a legal behaviour of an
		// asynchronous, queueing network — keeps the adversary's
		// feedback loop tight. Timely/Winning messages returned above
		// are exempt: the star's guarantees always hold.
		if pd := sp.paceDelay(ev, rn); pd > d {
			d = pd
		}
	}
	return d
}

// paceDelay estimates how long until the receiver processes round rn and
// returns a delay landing the message about two rounds ahead of it (0 when
// probes are missing or the message is already near its round). Estimates
// use the current largest timeout; undershoot merely weakens the adversary
// (the message is counted), overshoot adds sporadic suspicions of arbitrary
// senders, which the window test absorbs.
func (sp *starPolicy) paceDelay(ev *netsim.Envelope, rn int64) time.Duration {
	if sp.roundProbe == nil {
		return 0
	}
	r := sp.roundProbe(ev.To)
	if r < 0 {
		return 0
	}
	ahead := rn - r - 2
	if ahead <= 0 {
		return 0
	}
	per := sp.params.BaseHi
	if sp.timeoutProbe != nil {
		if to := sp.timeoutProbe(); to > per {
			per = to
		}
	}
	return time.Duration(ahead) * per
}

// loseDelay produces a delay large enough that the receiver's round guard
// fires before the message arrives, however large timeouts have grown. This
// is a legal asynchronous behaviour (no bound on transfer delays) and is the
// adversary that separates Figure 1 from Figures 2/3.
func (sp *starPolicy) loseDelay(r *sim.Rand) time.Duration {
	base := 20 * sp.params.BaseHi
	if sp.timeoutProbe != nil {
		if to := sp.timeoutProbe(); to > 0 {
			// Outrun the timeout race: rounds complete within
			// roughly max(β, timeout); four timeouts plus slack
			// lands well past the guard.
			base = 4*to + 10*sp.params.BaseHi
		}
	}
	return base + r.Duration(0, sp.params.BaseHi)
}

// allTimelyPolicy bounds every link by δ after a stabilization time, and is
// fully asynchronous before it. It realizes the strongest classical model
// (every link eventually timely, [14]). Its order adversary rotates over all
// processes but must respect the δ bound — which is exactly why time-free
// algorithms fail in this model while timer-based ones succeed.
type allTimelyPolicy struct {
	params      Params
	stabilize   sim.Time
	leaderProbe func() proc.ID
}

// Delay implements netsim.DelayPolicy.
func (ap *allTimelyPolicy) Delay(ev *netsim.Envelope, r *sim.Rand) time.Duration {
	p := ap.params
	if ev.From == ev.To {
		return r.Duration(0, p.BaseLo/2)
	}
	if ev.SentAt < ap.stabilize {
		// Asynchronous prefix: bounded (no drift, no outages) so that
		// the model's "eventually timely" promise is honest.
		if r.Bool(p.SpikeProb) {
			return r.Duration(p.SpikeLo, p.SpikeHi)
		}
		return r.Duration(p.BaseLo, p.BaseHi)
	}
	if _, tagged := RoundTag(ev.Payload); tagged && p.AdversarialOrder && ap.leaderProbe != nil {
		if ap.leaderProbe() == ev.From {
			// The chased leader stays within the δ bound — the whole
			// point of this model: the adversary's order attack is
			// all it has, and timer-based algorithms absorb it.
			return r.Duration(p.Delta*8/10, p.Delta)
		}
	}
	if p.AdversarialOrder {
		return r.Duration(p.Delta/20, p.Delta/10)
	}
	return r.Duration(p.Delta/4, p.Delta)
}

var (
	_ netsim.DelayPolicy = (*starPolicy)(nil)
	_ netsim.DelayPolicy = (*allTimelyPolicy)(nil)
)
