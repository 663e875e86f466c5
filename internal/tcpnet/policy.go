package tcpnet

import (
	"time"

	"repro/internal/proc"
)

// ChainPolicies composes policies: a frame must be admitted by every one,
// and its delays add. Used to overlay a chaos fault timeline on top of a
// user-configured LinkPolicy without either knowing about the other. nil
// entries are skipped; chaining zero or one policy returns what you expect.
func ChainPolicies(ps ...proc.LinkFault) proc.LinkFault {
	chain := make(policyChain, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			chain = append(chain, p)
		}
	}
	if len(chain) == 1 {
		return chain[0]
	}
	return chain
}

type policyChain []proc.LinkFault

func (c policyChain) Admit(from, to proc.ID) bool {
	for _, p := range c {
		if !p.Admit(from, to) {
			return false
		}
	}
	return true
}

func (c policyChain) Delay(from, to proc.ID) time.Duration {
	var d time.Duration
	for _, p := range c {
		d += p.Delay(from, to)
	}
	return d
}
