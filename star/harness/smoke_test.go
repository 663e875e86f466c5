package harness

import (
	"testing"

	"repro/star"
)

func TestSmokeFig3TSource(t *testing.T) {
	res, err := Run(Config{
		N: 5, T: 2, Seed: 1,
		Scenario: star.TSource(),
		Algo:     star.Fig3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stabilized=%v at=%v leader=%d maxLevel=%d B=%d rounds=%d events=%d msgs=%d elapsed=%v",
		res.Report.Stabilized, res.StabilizationTime(), res.Report.Leader,
		res.MaxSuspLevel, res.BoundB, res.RoundsDone, res.Metrics.Events, res.Net.Sent, res.Metrics.Elapsed)
	if !res.Report.Stabilized {
		t.Fatalf("fig3 did not stabilize under tsource: %+v", res.Report.Stabilization)
	}
	if !res.BoundOK {
		t.Errorf("Theorem 4 bound violated: max=%d B=%d", res.MaxSuspLevel, res.BoundB)
	}
}
