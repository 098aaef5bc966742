package pfm

// Ungated developer benchmarks: the arms no pfmbench stage replay measures
// yet (ROADMAP item 1 lists them as the residue to fold into bench/pfmbench).
// Timings that gate a change live in bench/pfmbench, contracts in the
// ZeroAllocs/parity tests, paper numbers in the acceptance tests and the
// cmd/* that print them (EXPERIMENTS.md).

import (
	"testing"
	"time"

	"repro/internal/pfmmodel"
	"repro/internal/runtime"
)

// BenchmarkCTMCSteadyState times the Fig. 9 stationary solve.
func BenchmarkCTMCSteadyState(b *testing.B) {
	p := pfmmodel.DefaultParams()
	c, err := p.Chain()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseTypeReliability times one R(t) evaluation (matrix
// exponential of the 5-phase sub-generator).
func BenchmarkPhaseTypeReliability(b *testing.B) {
	m, err := pfmmodel.DefaultParams().ReliabilityModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Survival(25000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRuntimeEngine builds an externally clocked MEA engine over the given
// layers for runtime benchmarks.
func benchRuntimeEngine(b *testing.B, layers []*Layer) *MEAEngine {
	b.Helper()
	sel, err := NewActionSelector(DefaultObjectiveWeights())
	if err != nil {
		b.Fatal(err)
	}
	action, err := NewAction("noop", StateCleanup,
		ActionParams{Cost: 0.1, SuccessProb: 0.9, Complexity: 0.1},
		func() error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewMEAEngine(nil, layers, nil, sel, []*Action{action}, nil, MEAConfig{
		EvalInterval:  1,
		LeadTime:      300,
		WarnThreshold: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRuntimeParallelLayers compares sequential layer evaluation with
// the runtime's worker pool on latency-bound layers (each simulating a
// ~200 µs monitor fetch, the common case for remote data sources). The
// pooled variant should complete one cycle in roughly fetch-latency rather
// than layers × fetch-latency.
func BenchmarkRuntimeParallelLayers(b *testing.B) {
	const nLayers = 8
	const fetchLatency = 200 * time.Microsecond
	layers := make([]*Layer, nLayers)
	for i := range layers {
		layers[i] = &Layer{
			Name: "remote",
			Evaluate: func(float64) (float64, error) {
				time.Sleep(fetchLatency) // stand-in for a monitor round-trip
				return 0.1, nil
			},
			Threshold: 1,
		}
	}
	eng := benchRuntimeEngine(b, layers)

	b.Run("sequential", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			eng.EvaluateLayers(float64(i))
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cycles/sec")
	})
	b.Run("pool-8", func(b *testing.B) {
		pool := runtime.NewPool(nLayers)
		defer pool.Close()
		start := time.Now()
		layers := eng.Layers()
		for i := 0; i < b.N; i++ {
			now := float64(i)
			pool.Do(len(layers), func(j int) { _, _ = layers[j].Score(now) })
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cycles/sec")
	})
}
