package harness

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/star"
)

// FedSpec parameterizes one federated-election run (experiment FED): S
// shards of M processes each run the paper's Ω internally while a parent
// tier of S delegates elects the global leader-of-leaders. The two churn
// knobs separate the failure domains the experiment compares: shard-local
// churn crashes rank-and-file members inside every shard (the shard's own
// Ω re-elects; the tier only notices when the shard's leader was hit),
// delegate churn kills tier members themselves (tier-2 suspicion rises and
// the pressure mapping pushes the shard into re-election).
type FedSpec struct {
	Shards, ShardSize int
	Seed              uint64
	// Algo is the algorithm for shards and tier. Empty means star.Fig3.
	Algo star.Algo
	// Epoch is the bridge cadence. 0 means the star default.
	Epoch time.Duration
	// Duration is the virtual run length. 0 means 10s.
	Duration time.Duration

	// Shard-local churn: inside every shard, processes rotate through
	// crash/restart with this schedule (zero Period disables it).
	ShardChurnStart, ShardChurnPeriod, ShardChurnDowntime time.Duration

	// Tier-2 delegate churn: delegates are killed on a rotation (zero
	// Period disables it). Until 0 means Duration - one period.
	DelegateChurnStart, DelegateChurnPeriod, DelegateChurnDowntime, DelegateChurnUntil time.Duration

	// Recovery attaches an in-memory recovery journal to every shard and
	// the tier, so churned incarnations restore instead of rejoining fresh.
	Recovery bool

	// Traffic, when positive, enables the global application lanes
	// (FedAppLanes) and drives that many waves of global broadcasts — one
	// submission per shard per wave, rotating through shard members — on a
	// deterministic schedule: a stabilization quarter, the waves spread
	// over the middle half, and a settling tail. The FedResult's Global*
	// fields report what committed.
	Traffic int
}

// ParseShape parses a federation shape "SxM" (S shards of M processes
// each, e.g. "8x16") into FedSpec's Shards and ShardSize.
func ParseShape(shape string) (shards, size int, err error) {
	sPart, mPart, ok := strings.Cut(shape, "x")
	if !ok {
		return 0, 0, fmt.Errorf("want a shape SxM, e.g. 8x16, got %q", shape)
	}
	if shards, err = strconv.Atoi(sPart); err != nil {
		return 0, 0, fmt.Errorf("bad shard count %q: %w", sPart, err)
	}
	if size, err = strconv.Atoi(mPart); err != nil {
		return 0, 0, fmt.Errorf("bad shard size %q: %w", mPart, err)
	}
	return shards, size, nil
}

func (s FedSpec) withDefaults() FedSpec {
	if s.Algo == "" {
		s.Algo = star.Fig3
	}
	if s.Duration == 0 {
		s.Duration = 10 * time.Second
	}
	if s.DelegateChurnPeriod > 0 && s.DelegateChurnUntil == 0 {
		s.DelegateChurnUntil = s.Duration - s.DelegateChurnPeriod
	}
	return s
}

// FedResult aggregates one federated run.
type FedResult struct {
	// Federation is the two-tier verdict (global leader, handoffs,
	// stabilization, invariant violations).
	Federation star.FederationReport

	// Events totals simulator events across every component cluster.
	Events uint64
	// Elapsed is real (wall-clock) time spent inside Run.
	Elapsed time.Duration

	// Global lanes (Traffic > 0). GlobalSeq is the committed global
	// total-order length; GlobalHash fingerprints the committed sequence
	// (equal hashes mean byte-identical replays); GlobalAgree reports
	// whether every member's lane log was a prefix of the global sequence,
	// and the whole of it for never-crashed members.
	GlobalSeq   int
	GlobalHash  uint64
	GlobalAgree bool
}

// fedOptions translates a defaulted spec into the star option list.
func (s FedSpec) fedOptions() []star.FedOption {
	shardOpts := func(shard int) []star.Option {
		opts := []star.Option{star.Algorithm(s.Algo)}
		if s.ShardChurnPeriod > 0 {
			opts = append(opts, star.Churn(s.ShardChurnStart, s.ShardChurnPeriod,
				s.ShardChurnDowntime, s.Duration))
		}
		if s.Recovery {
			opts = append(opts, star.WithRecovery(star.MemJournal()))
		}
		return opts
	}
	tierOpts := []star.Option{star.Algorithm(s.Algo)}
	if s.Recovery {
		tierOpts = append(tierOpts, star.WithRecovery(star.MemJournal()))
	}
	opts := []star.FedOption{
		star.FedShape(s.Shards, s.ShardSize),
		star.FedSeed(s.Seed),
		star.FedShardOptions(shardOpts),
		star.FedTierOptions(tierOpts...),
	}
	if s.Epoch != 0 {
		opts = append(opts, star.FedEpoch(s.Epoch))
	}
	if s.DelegateChurnPeriod > 0 {
		opts = append(opts, star.FedDelegateChurn(
			s.DelegateChurnStart, s.DelegateChurnPeriod,
			s.DelegateChurnDowntime, s.DelegateChurnUntil))
	}
	if s.Traffic > 0 {
		opts = append(opts, star.FedAppLanes())
	}
	return opts
}

// RunFed executes one federated run on the deterministic simulator and
// returns its results. Like every harness run, the result is a pure
// function of the spec.
func RunFed(spec FedSpec) (*FedResult, error) {
	spec = spec.withDefaults()
	f, err := star.NewFederation(spec.fedOptions()...)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	wall := time.Now()
	if err := runFedSchedule(f, spec); err != nil {
		return nil, fmt.Errorf("harness: federation: %w", err)
	}
	elapsed := time.Since(wall)
	res := &FedResult{Federation: *f.Report().Federation, Elapsed: elapsed}
	res.Events = f.Tier().Metrics().Events
	for s := 0; s < f.Shards(); s++ {
		res.Events += f.Shard(s).Metrics().Events
	}
	if spec.Traffic > 0 {
		seq := f.GlobalSequence()
		res.GlobalSeq = len(seq)
		res.GlobalHash = GlobalHash(seq)
		res.GlobalAgree = GlobalAgree(f, seq)
	}
	return res, nil
}

// runFedSchedule advances the federation through the spec's virtual
// horizon. Without traffic it is a single Run; with Traffic > 0 the horizon
// splits into a stabilization quarter, Traffic submission waves spread over
// the middle half (one broadcast per shard per wave, the submitting member
// rotating with the wave), and a settling tail.
func runFedSchedule(f *star.Federation, spec FedSpec) error {
	if spec.Traffic <= 0 {
		return f.Run(spec.Duration)
	}
	warm := spec.Duration / 4
	if err := f.Run(warm); err != nil {
		return err
	}
	slice := spec.Duration / 2 / time.Duration(spec.Traffic)
	for w := 0; w < spec.Traffic; w++ {
		for s := 0; s < spec.Shards; s++ {
			payload := int64(s)*1_000_000 + int64(w)
			if err := f.Broadcast(s, w%spec.ShardSize, payload); err != nil {
				return err
			}
		}
		if err := f.Run(slice); err != nil {
			return err
		}
	}
	return f.Run(spec.Duration - warm - time.Duration(spec.Traffic)*slice)
}

// GlobalHash fingerprints a committed global sequence (FNV-1a over every
// field of every entry): equal hashes across runs mean byte-identical
// global delivery logs.
func GlobalHash(seq []star.GlobalDelivery) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	for _, e := range seq {
		mix(e.GSeq)
		mix(uint64(e.Shard)<<32 | uint64(uint8(e.Kind))<<16 | uint64(uint16(e.Origin)))
		mix(uint64(e.Payload))
		mix(uint64(e.To))
	}
	return h
}

// GlobalAgree checks the lanes' agreement contract against the committed
// sequence: every member's delivered log is a prefix of it, and a
// never-crashed member's log is the whole of it.
func GlobalAgree(f *star.Federation, seq []star.GlobalDelivery) bool {
	for s := 0; s < f.Shards(); s++ {
		for p := 0; p < f.ShardSize(); p++ {
			log := f.GlobalLog(s, p)
			if len(log) > len(seq) {
				return false
			}
			if !f.Shard(s).EverCrashed(p) && len(log) != len(seq) {
				return false
			}
			for i, e := range log {
				if e != seq[i] {
					return false
				}
			}
		}
	}
	return true
}

// FlatConfig is the federated spec's flat control: one monolithic cluster
// of Shards*ShardSize processes under the same algorithm and seed, for the
// head-to-head stabilization comparison in experiment FED.
func FlatConfig(spec FedSpec) Config {
	spec = spec.withDefaults()
	return Config{
		N: spec.Shards * spec.ShardSize, T: (spec.Shards*spec.ShardSize - 1) / 2,
		Seed:     spec.Seed,
		Scenario: star.Combined(),
		Algo:     spec.Algo,
		Duration: spec.Duration,
	}
}
