package runtime

import (
	"sync/atomic"
	"testing"
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
