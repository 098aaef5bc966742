package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	For(n, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestForNMatchesSerial(t *testing.T) {
	const n = 257
	want := make([]float64, n)
	ForN(1, n, func(i int) { want[i] = float64(i) * 1.5 })
	for _, workers := range []int{0, 2, 3, 8, n + 7} {
		got := make([]float64, n)
		ForN(workers, n, func(i int) { got[i] = float64(i) * 1.5 })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	For(0, func(int) { t.Fatal("fn called for n=0") })
	ForN(4, -3, func(int) { t.Fatal("fn called for n<0") })
	ran := false
	For(1, func(i int) {
		if i != 0 {
			t.Fatalf("index %d", i)
		}
		ran = true
	})
	if !ran {
		t.Fatal("single unit not executed")
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Fatalf("Workers(big) = %d", w)
	}
}

// TestForUnderContention hammers the pool with many tiny units writing
// disjoint slots — the -race target for the worker-pool claim loop.
func TestForUnderContention(t *testing.T) {
	const rounds = 50
	const n = 512
	for r := 0; r < rounds; r++ {
		out := make([]int, n)
		ForN(8, n, func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("round %d: out[%d] = %d", r, i, v)
			}
		}
	}
}

// TestForScratchOnePerWorker: ForScratch makes exactly min(workers, n)
// scratches (GOMAXPROCS for workers ≤ 0), each once and before its worker's
// first index, and runs every index once with some worker's scratch.
func TestForScratchOnePerWorker(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 10}, {2, 1}, {3, 100}, {8, 5}, {0, 50}} {
		want := tc.workers
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		want = min(want, tc.n)
		var made atomic.Int32
		counts := make([]int32, tc.n)
		ForScratch(tc.workers, tc.n, func() *int32 {
			made.Add(1)
			return new(int32)
		}, func(s *int32, i int) {
			*s++ // owned by one worker: no race
			atomic.AddInt32(&counts[i], 1)
		})
		if int(made.Load()) != want {
			t.Fatalf("workers=%d n=%d: %d scratches, want %d", tc.workers, tc.n, made.Load(), want)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}
