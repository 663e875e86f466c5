// Command starbench is the repository's end-to-end benchmark: four workloads
// (two on the deterministic simulator, two over loopback TCP), six
// end-to-end metrics per workload measured with tracing off, and a traced
// pass that attributes cost to layers from outside them. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "run length the work counts are scaled to")
		trace    = flag.Int("trace", 0, "1: traced pass, per-layer metrics and bench/out/trace-*.json")
		repeat   = flag.Int("repeat", 1, "run the whole benchmark N times (seeds seed..seed+N-1) and print the spread")
		asJSON   = flag.Bool("json", false, "print the full result document as JSON")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Two cores at most: the load generator is one goroutine, the TCP
	// members need a second, and a wider setting only lets a shared host's
	// scheduling noise in.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	names := workloadNames()
	if *workload != "" {
		if _, ok := workloads[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "starbench: unknown workload %q (have %v)\n", *workload, names)
			os.Exit(2)
		}
		names = []string{*workload}
	}

	var docs []*document
	for i := range *repeat {
		doc := &document{Stamp: newStamp(*seed+uint64(i), *seconds), Trace: *trace == 1}
		if doc.Trace {
			var err error
			if doc.Probes, err = runProbes(doc.Stamp); err != nil {
				fmt.Fprintln(os.Stderr, "starbench:", err)
				os.Exit(1)
			}
		}
		for _, name := range names {
			start := time.Now()
			res := workloads[name](runConfig{seed: doc.Stamp.Seed, seconds: *seconds, trace: doc.Trace, stamp: doc.Stamp, probes: doc.Probes})
			res.WallS = time.Since(start).Seconds()
			doc.Results = append(doc.Results, res)
		}
		docs = append(docs, doc)
		if !*asJSON {
			doc.print(os.Stdout)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, docs)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fmt.Fprintln(os.Stderr, "starbench:", err)
			os.Exit(1)
		}
	}
	// The last line is always the driver's result object for the last
	// workload run (the only one, under -workload).
	lastDoc := docs[len(docs)-1]
	line, err := json.Marshal(lastDoc.Results[len(names)-1].driverLine(lastDoc.Probes))
	if err != nil {
		fmt.Fprintln(os.Stderr, "starbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(docs))
}

// exitCode is 0 only when every output check of every workload passed.
func exitCode(docs []*document) int {
	for _, d := range docs {
		for _, r := range d.Results {
			if !r.Correct {
				return 1
			}
		}
	}
	return 0
}
