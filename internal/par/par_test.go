package par

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 137
		seen := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachResultsIndependentOfWorkers(t *testing.T) {
	n := 50
	run := func(workers int) []int {
		out := make([]int, n)
		ForEach(n, workers, func(i int) { out[i] = i * i })
		return out
	}
	a, b := run(1), run(runtime.NumCPU())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestForEachDefaultWidthFollowsGOMAXPROCS: the default width is
// GOMAXPROCS, not the CPU count, so under GOMAXPROCS=1 (go test -cpu 1)
// every call runs inline on the caller's goroutine in index order.
func TestForEachDefaultWidthFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goid()
	var order []int
	ForEach(16, 0, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("index %d ran on goroutine %d, want the caller's %d", i, g, caller)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("call %d ran index %d, want index order: %v", i, v, order)
		}
	}
	if len(order) != 16 {
		t.Fatalf("ran %d of 16 indices", len(order))
	}
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 18 [running]: ...").
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}
