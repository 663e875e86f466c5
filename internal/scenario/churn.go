package scenario

import (
	"time"

	"repro/internal/proc"
	"repro/internal/sim"
)

// WithChurn returns a copy of p carrying a rotating crash/restart schedule:
// starting at start, every period the next victim — round-robin over the
// non-center processes — goes down for downtime, then comes back as a fresh
// incarnation. At most one process is down at a time, so any T >= 1
// satisfies the resilience sweep.
//
// Churn is the adversarial-round-skew workload for the ring-window
// bookkeeping: a rebooting process restarts its rounds at 1 while its peers
// are thousands of rounds ahead, so every ALIVE it receives is far-future
// relative to its receiving round (ring wrap + overflow on its side) and
// every ALIVE it sends is ancient for everyone else (the late-message
// discard path), while the survivors keep suspecting and re-counting it
// round after round. In the crash-stop model a recovered process is faulty;
// eventual leadership is owed only to the never-crashed set (see
// star.Cluster.EverCrashed), which churn leaves intact — the center and any
// process outside the rotation.
func WithChurn(p Params, start, period, downtime time.Duration, horizon time.Duration) Params {
	if period <= 0 || downtime <= 0 || downtime >= period {
		panic("scenario: churn needs 0 < downtime < period")
	}
	var victims []proc.ID
	for id := proc.ID(0); id < p.N; id++ {
		if id != p.Center {
			victims = append(victims, id)
		}
	}
	if len(victims) == 0 {
		return p
	}
	// Detach the schedule slices: appending into the caller's backing
	// arrays would let two derivations from one base Params overwrite
	// each other's schedules.
	p.Crashes = append([]Crash(nil), p.Crashes...)
	p.Restarts = append([]Restart(nil), p.Restarts...)
	// Keep the last victim's restart inside the horizon so the schedule
	// validates and every crash is observed recovering.
	for k := 0; ; k++ {
		at := start + time.Duration(k)*period
		if sim.Time(at+downtime) >= sim.Time(horizon) {
			break
		}
		v := victims[k%len(victims)]
		p.Crashes = append(p.Crashes, Crash{ID: v, At: sim.Time(at)})
		p.Restarts = append(p.Restarts, Restart{ID: v, At: sim.Time(at + downtime)})
	}
	return p
}
