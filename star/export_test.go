package star

import "repro/internal/chaos"

// LinkFaults exposes a WithChaos cluster's link-fault state, so transport
// tests can turn loss and cuts by hand mid-run on the one path a schedule
// drives.
func (c *Cluster) LinkFaults() *chaos.Faults { return c.chaosFaults }
