package hsmm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// Property: a trained model assigns a finite log-likelihood to any
// non-empty sequence — arbitrary symbols, arbitrary (non-negative) delays.
func TestLikelihoodFiniteProperty(t *testing.T) {
	g := stats.NewRNG(101)
	model, err := Fit(genFailureSeqs(g, 12), Config{States: 3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(25)
		seq := eventlog.Sequence{
			Times: make([]float64, n),
			Types: make([]int, n),
		}
		tt := 0.0
		for i := 0; i < n; i++ {
			if i > 0 {
				tt += r.ExpFloat64() * math.Pow(10, float64(r.Intn(7))-3)
			}
			seq.Times[i] = tt
			seq.Types[i] = r.Intn(1000) - 500 // mostly unseen symbols
		}
		ll, err := model.LogLikelihood(seq)
		if err != nil {
			return false
		}
		return !math.IsNaN(ll) && !math.IsInf(ll, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips preserve likelihoods bit-for-bit for
// random models and random probes.
func TestSerializationPreservesLikelihoodProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		model, err := Fit(genFailureSeqs(g, 8), Config{States: 2, Seed: seed, MaxIter: 5})
		if err != nil {
			return false
		}
		data, err := model.MarshalJSON()
		if err != nil {
			return false
		}
		var restored Model
		if err := restored.UnmarshalJSON(data); err != nil {
			return false
		}
		probe := genFailureSeqs(g, 1)[0]
		a, err := model.LogLikelihood(probe)
		if err != nil {
			return false
		}
		b, err := restored.LogLikelihood(probe)
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
