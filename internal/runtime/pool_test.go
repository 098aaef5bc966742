package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolDoCoversAllIndices checks every index is claimed exactly once for
// a range of fan-out sizes and worker counts, including n much larger than
// the worker count and a nil (inline) pool.
func TestPoolDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		var p *Pool
		if workers > 0 {
			p = NewPool(workers)
		}
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]atomic.Int32, n)
			p.Do(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		if p != nil {
			p.Close()
		}
	}
}

// TestPoolDoDeterministic verifies index-addressed output is identical for
// every worker count — the shared-pool half of the internal/par contract the
// fleet's batched cross-tenant evaluation relies on.
func TestPoolDoDeterministic(t *testing.T) {
	const n = 513
	work := func(p *Pool) []float64 {
		out := make([]float64, n)
		p.Do(n, func(i int) { out[i] = float64(i)*1.5 + 1 })
		return out
	}
	want := work(nil)
	for _, workers := range []int{1, 2, 5, 16} {
		p := NewPool(workers)
		got := work(p)
		p.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPoolSequentialJobs runs many Do calls back to back on one pool; a
// stale worker from a previous job must never bleed into the next one.
func TestPoolSequentialJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 200; round++ {
		var sum atomic.Int64
		p.Do(10, func(i int) { sum.Add(int64(i)) })
		if got := sum.Load(); got != 45 {
			t.Fatalf("round %d: sum = %d, want 45", round, got)
		}
	}
}

// TestPoolDoRanges checks range claiming hands every index out exactly once
// around the range-size boundaries (n = 4·(workers+1) ± 1 for three workers,
// n not a multiple of the range), under concurrent Do calls on one pool, and
// for a Do issued from inside fn.
func TestPoolDoRanges(t *testing.T) {
	sizes := []int{0, 1, 2, 11, 12, 13, 1000, 4097}
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, n := range sizes {
					hits := make([]atomic.Int32, n)
					p.Do(n, func(i int) { hits[i].Add(1) })
					for i := range hits {
						if got := hits[i].Load(); got != 1 {
							t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		const outer, inner = 13, 101
		hits := make([]atomic.Int32, outer*inner)
		p.Do(outer, func(i int) {
			p.Do(inner, func(k int) { hits[i*inner+k].Add(1) })
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d nested: slot %d ran %d times", workers, i, got)
			}
		}
		p.Close()
	}
}

// TestPoolDoSmallJobsOverlap: a job no larger than the participant count is
// still claimed one index at a time and still wakes a helper — each of its
// two indices waits for the other to have started, which a serialised job
// never satisfies.
func TestPoolDoSmallJobsOverlap(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for round := 0; round < 50; round++ {
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var timedOut atomic.Bool
		p.Do(2, func(i int) {
			close(started[i])
			select {
			case <-started[1-i]:
			case <-time.After(5 * time.Second):
				timedOut.Store(true)
			}
		})
		if timedOut.Load() {
			t.Fatalf("round %d: the two indices of Do(2) did not overlap", round)
		}
	}
}

// TestPoolDoWakesNoHelperForOneIndex: with every worker held inside another
// job, whatever copies a Do sends stay in the task buffer, so its length
// after Do returns is the number of helpers that Do tried to wake: none for
// one index, one for two.
func TestPoolDoWakesNoHelperForOneIndex(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	defer p.Close()
	var held, blocker sync.WaitGroup
	release := make(chan struct{})
	held.Add(workers + 1)
	blocker.Add(1)
	go func() {
		defer blocker.Done()
		p.Do(workers+1, func(int) { held.Done(); <-release })
	}()
	// Runs before Close, also on failure.
	defer func() { close(release); blocker.Wait() }()
	// Both workers and the submitter sit in fn; the task buffer is empty.
	held.Wait()
	for _, tc := range []struct{ n, copies int }{{1, 0}, {2, 1}} {
		ran := 0
		p.Do(tc.n, func(int) { ran++ })
		if ran != tc.n {
			t.Fatalf("Do(%d) ran %d indices on the submitter", tc.n, ran)
		}
		if got := len(p.tasks); got != tc.copies {
			t.Fatalf("Do(%d) left %d job copies queued, want %d", tc.n, got, tc.copies)
		}
	}
}
