package star

import "fmt"

// Algo names an eventual-leader implementation. The four core variants are
// the paper's Figures 1-3 and the §7 generalization; the two baselines are
// the classical constructions the paper subsumes (TimeFree runs as a fifth
// core variant, Stable as its own node).
type Algo string

// The runnable algorithms.
const (
	// Fig1 is the A'-based algorithm (Figure 1): no window test, no
	// minimum test. Correct under every A' family, diverges under the
	// intermittent star.
	Fig1 Algo = "fig1"
	// Fig2 adds the window test (line "*"): correct under the
	// intermittent star A, but its variables grow without bound when a
	// process crashes.
	Fig2 Algo = "fig2"
	// Fig3 adds the minimum test (line "**"): the paper's final
	// algorithm, with every variable except round numbers bounded
	// (Theorem 4). The default.
	Fig3 Algo = "fig3"
	// FG is Figure 3 with the §7 growth functions f and g, for the
	// A_{f,g} model of growing star gaps and delays.
	FG Algo = "fg"
	// Stable is the classical heartbeat/timeout baseline [14]; it needs
	// every leader link to be eventually timely.
	Stable Algo = "stable"
	// TimeFree is the time-free message-pattern baseline [16,18]: Figure
	// 1 without the round timer, so a receiving round closes on its first
	// alpha ALIVEs. It needs the center's ALIVE to win those races and uses
	// no timeout at all.
	TimeFree Algo = "timefree"
)

// Algorithms lists all runnable algorithms (grid experiments iterate this).
func Algorithms() []Algo {
	return []Algo{Fig1, Fig2, Fig3, FG, Stable, TimeFree}
}

// ParseAlgorithm validates a CLI-provided algorithm name.
func ParseAlgorithm(s string) (Algo, error) {
	for _, a := range Algorithms() {
		if s == string(a) {
			return a, nil
		}
	}
	return "", fmt.Errorf("%w: %q (want one of %v)", ErrUnknownAlgorithm, s, Algorithms())
}
