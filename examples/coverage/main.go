// Coverage: run the paper's algorithm and the two classical baselines under
// three assumption families and print who elects a stable leader where —
// a miniature of the C1 experiment (run `go run ./cmd/experiments -run C1`
// for the full grid).
//
// The families are adversarial: being δ-timely does not imply winning
// reception races, and unconstrained links suffer growing outages. The
// heartbeat baseline needs every leader link timely; the time-free baseline
// needs winning responses; the paper's Figure 3 handles all of it.
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"log"
	"time"

	"repro/star"
	"repro/star/harness"
)

func main() {
	families := []string{
		"alltimely", // every link eventually timely
		"tsource",   // only t links from one process timely
		"pattern",   // no timing at all; t winning links
	}
	algos := []star.Algo{
		star.Stable,   // heartbeat/timeout baseline [14]
		star.TimeFree, // time-free pattern baseline [16,18]
		star.Fig3,     // the paper's algorithm
	}

	fmt.Printf("%-12s", "")
	for _, a := range algos {
		fmt.Printf("  %-10s", a)
	}
	fmt.Println()

	spec := harness.GridSpec{N: 5, T: 2, Seed: 3, Duration: 60 * time.Second}
	for _, fam := range families {
		fmt.Printf("%-12s", fam)
		for _, a := range algos {
			res, err := harness.Run(harness.GridCellConfig(spec, fam, a))
			if err != nil {
				log.Fatal(err)
			}
			switch {
			case res.Report.Stabilized && res.TimeoutsStable:
				fmt.Printf("  %-10s", "leader ✓")
			case res.Report.Stabilized:
				fmt.Printf("  %-10s", "unbounded")
			default:
				fmt.Printf("  %-10s", "churn ✗")
			}
		}
		fmt.Println()
	}

	fmt.Println("\nReading: each baseline fails outside the model it was built for;")
	fmt.Println("the rotating-star algorithm subsumes both (plus the moving and")
	fmt.Println("intermittent variants — see cmd/experiments -run C1).")
}
