// Package par provides a minimal worker-pool fan-out for embarrassingly
// parallel experiment execution.
//
// Every simulation run owns its scheduler, network and random streams and is
// deterministic per seed, so independent runs can execute in parallel while
// results stay byte-identical to a sequential execution: callers index a
// pre-sized results slice by job index, which fixes the output order
// regardless of completion order or worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), using up to workers goroutines.
// workers <= 0 means runtime.GOMAXPROCS(0), so GOMAXPROCS=1 (or go test
// -cpu 1) runs every call inline on the caller's goroutine in index order.
// ForEach returns when every call has completed. fn must be safe to call
// concurrently for distinct i; writes to disjoint slice elements are safe
// and are ordered by the pool's final synchronization.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
