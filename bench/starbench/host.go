package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// stamp identifies the machine, toolchain and inputs behind a set of
// numbers; every output carries one.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func newStamp(seed uint64, seconds int) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from. bench/run.sh links in
// that of the git work tree it builds in (-X main.commit=...); a binary built
// any other way, or outside a work tree, does not know it.
var commit = "unknown"

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a point reading of the process-wide cost counters a measured
// window is charged with.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost is the difference of two usage readings.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func (a usage) since(b usage) cost {
	return cost{wall: a.wall.Sub(b.wall), cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}
