// Package par provides the deterministic parallel fan-out primitive shared
// by the offline pipeline (the experiments harness, UBF training,
// cross-validation folds): n independent work units indexed 0..n-1 are
// distributed over a bounded worker pool, each unit writes only to its own
// index, and callers merge results in index order.
//
// Determinism contract (the same one established for hsmm.Fit): a unit's
// output must depend only on its index and its inputs — never on which
// worker ran it or in what order units completed. Callers that need
// randomness pre-split one stats.RNG stream per unit before fanning out.
// Under that contract a parallel run is bit-identical to the serial one at
// any worker count, so experiment tables replay byte-for-byte.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers bounds a worker count by GOMAXPROCS and the number of tasks
// (always ≥ 1).
func Workers(tasks int) int {
	w := runtime.GOMAXPROCS(0)
	if tasks < w {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0, n) on up to GOMAXPROCS workers and
// returns when all units are done. Units are claimed from a shared atomic
// counter, so scheduling is dynamic but the set of executed indices — and
// anything written at dst[i] — is identical to the serial loop.
func For(n int, fn func(i int)) {
	ForN(0, n, fn)
}

// ForN is For with an explicit worker bound: workers ≤ 0 defaults to
// GOMAXPROCS, workers == 1 runs the plain serial loop inline (the reference
// path the determinism tests compare against).
func ForN(workers, n int, fn func(i int)) {
	ForScratch(workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// ForScratch is ForN for a body that needs working storage of its own:
// each worker calls scratch once, before it claims its first index, and
// hands the result to every fn call it makes — one scratch a worker, not
// one an index, and exactly min(workers, n) of them (workers ≤ 0 meaning
// GOMAXPROCS), so a scratch that allocates all it needs when made keeps a
// job's allocation count the same from run to run. Which indices share a
// scratch varies, so fn's result must not depend on what an earlier index
// left in it, and nothing fn returns may keep a reference to it.
func ForScratch[S any](workers, n int, scratch func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := scratch()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := scratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(s, i)
			}
		}()
	}
	wg.Wait()
}
