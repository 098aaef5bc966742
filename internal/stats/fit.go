package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrFit is wrapped by all distribution-fitting errors.
var ErrFit = errors.New("stats: fit failed")

// FitWeibullMLE fits a Weibull distribution by maximum likelihood: the
// shape solves
//
//	Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − (1/n) Σ ln xᵢ = 0
//
// (bisection; the left side is increasing in k), and the scale follows as
// λ = (Σ xᵢᵏ / n)^{1/k}. MLE uses the full sample information (moment
// matching only uses mean and variance) and is asymptotically efficient;
// for very small samples both estimators carry noticeable shape bias.
func FitWeibullMLE(samples []float64) (Weibull, error) {
	n := len(samples)
	if n < 2 {
		return Weibull{}, fmt.Errorf("%w: need ≥ 2 samples", ErrFit)
	}
	meanLog := 0.0
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Weibull{}, fmt.Errorf("%w: sample %g", ErrFit, x)
		}
		meanLog += math.Log(x)
	}
	meanLog /= float64(n)
	// All-equal samples have no shape information.
	allEqual := true
	for _, x := range samples[1:] {
		if x != samples[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return Weibull{}, fmt.Errorf("%w: degenerate (constant) samples", ErrFit)
	}
	g := func(k float64) float64 {
		var sumXk, sumXkLog float64
		for _, x := range samples {
			xk := math.Pow(x, k)
			sumXk += xk
			sumXkLog += xk * math.Log(x)
		}
		return sumXkLog/sumXk - 1/k - meanLog
	}
	lo, hi := 0.02, 100.0
	if g(lo) > 0 || g(hi) < 0 {
		return Weibull{}, fmt.Errorf("%w: shape outside [%g, %g]", ErrFit, lo, hi)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	sumXk := 0.0
	for _, x := range samples {
		sumXk += math.Pow(x, k)
	}
	scale := math.Pow(sumXk/float64(n), 1/k)
	return Weibull{K: k, Lambda: scale}, nil
}

// LogLikelihoodWeibull returns the total log-likelihood of samples under d,
// for model-selection comparisons.
func LogLikelihoodWeibull(d Weibull, samples []float64) float64 {
	ll := 0.0
	for _, x := range samples {
		ll += Log(d.PDF(x))
	}
	return ll
}
