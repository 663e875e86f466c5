package core

import (
	"fmt"
	"time"

	"repro/internal/rounds"
)

// Variant selects which of the paper's algorithms a Node runs.
type Variant int

// The four algorithm variants, in the paper's order of presentation.
const (
	// VariantFig1 is the A'-based algorithm (Figure 1): no window test,
	// no minimum test. Requires the rotating t-star at every round.
	VariantFig1 Variant = iota + 1
	// VariantFig2 is the A-based algorithm (Figure 2): adds the window
	// test (line "*"), tolerating an intermittent star.
	VariantFig2
	// VariantFig3 is the bounded-variable algorithm (Figure 3): adds the
	// minimum test (line "**"), bounding all variables except rounds.
	VariantFig3
	// VariantFG is Figure 3 with the Section 7 generalization: the known
	// functions F and G extend the window test and the timeout.
	VariantFG
)

func (v Variant) String() string {
	switch v {
	case VariantFig1:
		return "fig1"
	case VariantFig2:
		return "fig2"
	case VariantFig3:
		return "fig3"
	case VariantFG:
		return "fg"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant converts a string (as accepted by the CLIs) to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "fig1":
		return VariantFig1, nil
	case "fig2":
		return VariantFig2, nil
	case "fig3":
		return VariantFig3, nil
	case "fg":
		return VariantFG, nil
	default:
		return 0, fmt.Errorf("core: unknown variant %q (want fig1|fig2|fig3|fg)", s)
	}
}

// Config parameterizes a Node. The zero value is not valid; fill in N and T
// and call Validate (or rely on NewNode, which validates).
type Config struct {
	// N is the number of processes; T is the maximum number that may
	// crash (0 <= T < N). The suspicion threshold is Alpha (see below);
	// T itself is never used by the algorithm (paper footnote 5), only
	// for the default Alpha = N-T.
	N, T int

	// Alpha is the reception/suspicion threshold ("n-t" in the paper).
	// It must be a lower bound on the number of correct processes. 0
	// means "use N-T".
	Alpha int

	// Variant selects the algorithm; 0 means VariantFig3 (the paper's
	// final algorithm).
	Variant Variant

	// AlivePeriod is β: the maximum time between two consecutive ALIVE
	// broadcasts by task T1 (paper: "repeat regularly"). 0 means 10ms.
	AlivePeriod time.Duration

	// TimeoutUnit converts the dimensionless timer value of line 11
	// (max susp_level) into time. 0 means 1ms.
	TimeoutUnit time.Duration

	// MinTimeout floors every receiving-round timeout, excluding Zeno
	// executions (see package docs). 0 means 1µs. Set negative to force
	// a literal zero floor (only safe when Alpha >= 2).
	MinTimeout time.Duration

	// F and G are the Section 7 functions, used only by VariantFG and
	// assumed known by all processes (as the paper requires). F extends
	// the window test by F(rn) rounds; G extends the round timeout by
	// G(rn). nil means the constant-zero function (which makes VariantFG
	// behave exactly like VariantFig3, as noted at the end of §7).
	F func(rn int64) int64
	G func(rn int64) time.Duration

	// JoinCurrentRound makes the node adopt the round frontier from the
	// first message it receives: sending and receiving rounds jump to the
	// message's round instead of counting up from 1. The paper starts all
	// processes "at the beginning", so the base algorithm never needs
	// this; churn scenarios set it on restarted incarnations, which would
	// otherwise rejoin thousands of rounds behind and — with everyone's
	// sending rounds mutually misaligned — starve every survivor's round
	// guard of its alpha quorum. Safety is untouched: a rejoined process
	// contributes reports under the same alpha threshold as anyone else.
	JoinCurrentRound bool

	// WindowSlots sizes the ring of round-indexed bookkeeping rows
	// (rounded up to a power of two). It must comfortably exceed the
	// deepest window test (susp_level bound B+1 plus max F) and the
	// typical skew between the rounds appearing in received messages and
	// the local receiving round; rounds outside the ring fall back to an
	// exact but slower overflow map (counted in Metrics). 0 means
	// rounds.DefaultSlots.
	WindowSlots int

	// Retention, when positive, prunes suspicions/rec_from bookkeeping
	// rows older than Retention rounds behind the newest round seen. It
	// must comfortably exceed the eventual suspicion-level bound B+1
	// plus max F, or liveness of crash detection can be lost. 0 keeps
	// everything (paper-faithful).
	Retention int64

	// OnIncrement, when non-nil, observes every susp_level increment
	// (line 17). Used by invariant checkers and experiments.
	OnIncrement func(k int, newLevel int64)
}

// Defaults used when Config fields are zero.
const (
	DefaultAlivePeriod = 10 * time.Millisecond
	DefaultTimeoutUnit = time.Millisecond
	DefaultMinTimeout  = time.Microsecond
)

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Variant == 0 {
		c.Variant = VariantFig3
	}
	if c.Alpha == 0 {
		c.Alpha = c.N - c.T
	}
	if c.AlivePeriod == 0 {
		c.AlivePeriod = DefaultAlivePeriod
	}
	if c.TimeoutUnit == 0 {
		c.TimeoutUnit = DefaultTimeoutUnit
	}
	switch {
	case c.MinTimeout == 0:
		c.MinTimeout = DefaultMinTimeout
	case c.MinTimeout < 0:
		c.MinTimeout = 0
	}
	if c.F == nil {
		c.F = func(int64) int64 { return 0 }
	}
	if c.G == nil {
		c.G = func(int64) time.Duration { return 0 }
	}
	return c
}

// Validate reports whether the configuration is usable. It is called by
// NewNode on the defaulted copy.
func (c Config) Validate() error {
	if c.N < 2 || c.N > rounds.MaxN {
		return fmt.Errorf("core: N must be in [2,%d], got %d", rounds.MaxN, c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return fmt.Errorf("core: T must be in [0,%d), got %d", c.N, c.T)
	}
	if c.Alpha < 1 || c.Alpha > c.N {
		return fmt.Errorf("core: Alpha must be in [1,%d], got %d", c.N, c.Alpha)
	}
	if c.Variant < VariantFig1 || c.Variant > VariantFG {
		return fmt.Errorf("core: invalid variant %d", c.Variant)
	}
	if c.AlivePeriod <= 0 {
		return fmt.Errorf("core: AlivePeriod must be positive, got %v", c.AlivePeriod)
	}
	if c.TimeoutUnit <= 0 {
		return fmt.Errorf("core: TimeoutUnit must be positive, got %v", c.TimeoutUnit)
	}
	if c.Alpha == 1 && c.MinTimeout <= 0 {
		return fmt.Errorf("core: Alpha=1 requires a positive MinTimeout (Zeno guard)")
	}
	if c.Retention < 0 {
		return fmt.Errorf("core: Retention must be >= 0, got %d", c.Retention)
	}
	if c.WindowSlots < 0 {
		return fmt.Errorf("core: WindowSlots must be >= 0, got %d", c.WindowSlots)
	}
	return nil
}
