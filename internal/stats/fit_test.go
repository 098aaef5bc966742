package stats

import (
	"math"
	"testing"
)

func TestFitWeibullMLERecovery(t *testing.T) {
	g := NewRNG(73)
	for _, truth := range []Weibull{
		{K: 0.7, Lambda: 50},
		{K: 1.5, Lambda: 200},
		{K: 3.2, Lambda: 10},
	} {
		samples := make([]float64, 4000)
		for i := range samples {
			samples[i] = truth.Sample(g)
		}
		fit, err := FitWeibullMLE(samples)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.K-truth.K)/truth.K > 0.08 {
			t.Fatalf("shape %g, want %g", fit.K, truth.K)
		}
		if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.08 {
			t.Fatalf("scale %g, want %g", fit.Lambda, truth.Lambda)
		}
	}
}

// On small failure samples both MLE and moment matching must generalize:
// their held-out log-likelihood stays within a few percent of the true
// model's (no catastrophic misfit), and both clearly beat a wrong model.
func TestWeibullFitsGeneralize(t *testing.T) {
	g := NewRNG(79)
	truth := Weibull{K: 2.5, Lambda: 100}
	holdout := make([]float64, 5000)
	for i := range holdout {
		holdout[i] = truth.Sample(g)
	}
	momentFit := func(samples []float64) Weibull {
		mean, sd := Mean(samples), StdDev(samples)
		cv2 := (sd / mean) * (sd / mean)
		lo, hi := 0.1, 20.0
		for i := 0; i < 100; i++ {
			mid := (lo + hi) / 2
			g1 := math.Gamma(1 + 1/mid)
			g2 := math.Gamma(1 + 2/mid)
			if g2/(g1*g1)-1 > cv2 {
				lo = mid
			} else {
				hi = mid
			}
		}
		k := (lo + hi) / 2
		return Weibull{K: k, Lambda: mean / math.Gamma(1+1/k)}
	}
	var mleLL, momLL float64
	const trials = 100
	ok := 0
	for trial := 0; trial < trials; trial++ {
		samples := make([]float64, 15)
		for i := range samples {
			samples[i] = truth.Sample(g)
		}
		mle, err := FitWeibullMLE(samples)
		if err != nil {
			continue
		}
		mleLL += LogLikelihoodWeibull(mle, holdout)
		momLL += LogLikelihoodWeibull(momentFit(samples), holdout)
		ok++
	}
	if ok < trials/2 {
		t.Fatalf("only %d successful trials", ok)
	}
	truthLL := LogLikelihoodWeibull(truth, holdout)
	wrongLL := LogLikelihoodWeibull(Weibull{K: 0.6, Lambda: 30}, holdout)
	for name, ll := range map[string]float64{"MLE": mleLL / float64(ok), "moments": momLL / float64(ok)} {
		if ll < truthLL*1.03 { // log-likelihoods are negative: 3% margin
			t.Fatalf("%s held-out LL %g too far below truth %g", name, ll, truthLL)
		}
		if ll <= wrongLL {
			t.Fatalf("%s held-out LL %g not above a wrong model %g", name, ll, wrongLL)
		}
	}
}

func TestFitWeibullMLEValidation(t *testing.T) {
	if _, err := FitWeibullMLE([]float64{5}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := FitWeibullMLE([]float64{1, 0}); err == nil {
		t.Fatal("zero sample accepted")
	}
	if _, err := FitWeibullMLE([]float64{3, 3, 3}); err == nil {
		t.Fatal("constant samples accepted")
	}
}

func TestLogLikelihoodWeibullOrdersModels(t *testing.T) {
	g := NewRNG(83)
	truth := Weibull{K: 2, Lambda: 10}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = truth.Sample(g)
	}
	good := LogLikelihoodWeibull(truth, samples)
	bad := LogLikelihoodWeibull(Weibull{K: 0.5, Lambda: 100}, samples)
	if good <= bad {
		t.Fatalf("true model %g not above wrong model %g", good, bad)
	}
}
