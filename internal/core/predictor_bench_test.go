package core

import (
	"sync"
	"testing"
)

// BenchmarkLayerSwap measures a hot-swap against a layer whose handle is
// being scored concurrently — the zero-downtime claim in numbers: the CAS
// loop must stay nanosecond-scale and allocation-light no matter how hard
// the read side hammers the handle.
func BenchmarkLayerSwap(b *testing.B) {
	layer := &Layer{
		Name:      "bench",
		Predictor: PredictorFunc(func(float64) (float64, error) { return 0.5, nil }),
		Threshold: 0.5,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = layer.Score(float64(i))
		}
	}()
	replacement := PredictorFunc(func(float64) (float64, error) { return 0.7, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.SwapPredictor(replacement)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
