package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSetCycleObserver swaps the cycle observer while ActOn
// cycles are in flight from several goroutines (run with -race): no
// observation may tear, and after the dust settles a freshly installed
// observer sees every subsequent round.
func TestConcurrentSetCycleObserver(t *testing.T) {
	eng, err := New(nil, []*Layer{constLayer("app", 0.9)}, nil, testSelector(t),
		testActions(t, &scriptedTarget{}), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	counting := func(now float64, scores []float64, d Decision) {
		_ = scores[0] // touch the borrowed slice while it is valid
		observed.Add(1)
	}

	const actors = 4
	var actWG, swapWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < actors; g++ {
		actWG.Add(1)
		go func(g int) {
			defer actWG.Done()
			for i := 0; i < 500; i++ {
				eng.ActOn(float64(g*1000+i), []float64{0.9})
			}
		}(g)
	}
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				eng.SetCycleObserver(counting)
			} else {
				eng.SetCycleObserver(nil)
			}
		}
	}()
	actWG.Wait()
	close(stop)
	swapWG.Wait()

	// Deterministic tail: a pinned observer must see every further round.
	eng.SetCycleObserver(counting)
	before := observed.Load()
	for i := 0; i < 10; i++ {
		eng.ActOn(float64(10000+i), []float64{0.9})
	}
	if got := observed.Load() - before; got != 10 {
		t.Fatalf("pinned observer saw %d of 10 rounds", got)
	}
}
