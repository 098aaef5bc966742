package stats

import (
	"fmt"
	"math"
)

// Dist is a univariate continuous distribution.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Mean returns the expectation.
	Mean() float64
	// Sample draws one variate using g.
	Sample(g *RNG) float64
}

// Normal is the Gaussian distribution N(Mu, Sigma²).
type Normal struct {
	Mu, Sigma float64
}

var _ Dist = Normal{}

// PDF returns the Gaussian density at x.
func (d Normal) PDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return math.Exp(-0.5*z*z) / (d.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X ≤ x) via the error function.
func (d Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-d.Mu)/(d.Sigma*math.Sqrt2))
}

// Mean returns Mu.
func (d Normal) Mean() float64 { return d.Mu }

// Sample draws a variate.
func (d Normal) Sample(g *RNG) float64 { return d.Mu + d.Sigma*g.NormFloat64() }

// Exponential is the exponential distribution with rate Lambda.
type Exponential struct {
	Lambda float64
}

var _ Dist = Exponential{}

// PDF returns the density at x.
func (d Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return d.Lambda * math.Exp(-d.Lambda*x)
}

// CDF returns P(X ≤ x).
func (d Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-d.Lambda*x)
}

// Mean returns 1/Lambda.
func (d Exponential) Mean() float64 { return 1 / d.Lambda }

// Sample draws a variate.
func (d Exponential) Sample(g *RNG) float64 { return g.ExpFloat64() / d.Lambda }

// Weibull is the Weibull distribution with shape K and scale Lambda.
// K > 1 models increasing hazard (aging), K < 1 infant mortality.
type Weibull struct {
	K, Lambda float64
}

var _ Dist = Weibull{}

// PDF returns the density at x.
func (d Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	z := x / d.Lambda
	return d.K / d.Lambda * math.Pow(z, d.K-1) * math.Exp(-math.Pow(z, d.K))
}

// CDF returns P(X ≤ x).
func (d Weibull) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/d.Lambda, d.K))
}

// Mean returns λ·Γ(1+1/k).
func (d Weibull) Mean() float64 { return d.Lambda * math.Gamma(1+1/d.K) }

// Sample draws a variate by inversion.
func (d Weibull) Sample(g *RNG) float64 {
	return d.Lambda * math.Pow(g.ExpFloat64(), 1/d.K)
}

// Hazard returns the Weibull hazard rate at x.
func (d Weibull) Hazard(x float64) float64 {
	if x <= 0 {
		x = 1e-300
	}
	return d.K / d.Lambda * math.Pow(x/d.Lambda, d.K-1)
}

// LogNormal is the log-normal distribution: ln X ~ N(Mu, Sigma²).
type LogNormal struct {
	Mu, Sigma float64
}

var _ Dist = LogNormal{}

// PDF returns the density at x.
func (d LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - d.Mu) / d.Sigma
	return math.Exp(-0.5*z*z) / (x * d.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X ≤ x).
func (d LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: d.Mu, Sigma: d.Sigma}.CDF(math.Log(x))
}

// Mean returns exp(μ + σ²/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Sample draws a variate.
func (d LogNormal) Sample(g *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*g.NormFloat64())
}

// Gamma is the gamma distribution with shape Alpha and rate Beta.
type Gamma struct {
	Alpha, Beta float64
}

var _ Dist = Gamma{}

// PDF returns the density at x.
func (d Gamma) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(d.Alpha)
	return math.Exp(d.Alpha*math.Log(d.Beta) + (d.Alpha-1)*math.Log(x) - d.Beta*x - lg)
}

// CDF returns P(X ≤ x) via the regularized lower incomplete gamma function.
func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return lowerIncompleteGammaRegularized(d.Alpha, d.Beta*x)
}

// Mean returns α/β.
func (d Gamma) Mean() float64 { return d.Alpha / d.Beta }

// Sample draws a variate with the Marsaglia–Tsang method.
func (d Gamma) Sample(g *RNG) float64 {
	a := d.Alpha
	boost := 1.0
	if a < 1 {
		// Boosting: X(a) = X(a+1) * U^(1/a).
		boost = math.Pow(g.Float64(), 1/a)
		a++
	}
	dd := a - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	for {
		x := g.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return dd * v * boost / d.Beta
		}
	}
}

// Uniform is the uniform distribution on [A, B).
type Uniform struct {
	A, B float64
}

var _ Dist = Uniform{}

// PDF returns the density at x.
func (d Uniform) PDF(x float64) float64 {
	if x < d.A || x >= d.B {
		return 0
	}
	return 1 / (d.B - d.A)
}

// CDF returns P(X ≤ x).
func (d Uniform) CDF(x float64) float64 {
	switch {
	case x < d.A:
		return 0
	case x >= d.B:
		return 1
	default:
		return (x - d.A) / (d.B - d.A)
	}
}

// Mean returns (A+B)/2.
func (d Uniform) Mean() float64 { return (d.A + d.B) / 2 }

// Sample draws a variate.
func (d Uniform) Sample(g *RNG) float64 { return d.A + (d.B-d.A)*g.Float64() }

// lowerIncompleteGammaRegularized computes P(a, x) = γ(a,x)/Γ(a) using the
// series for x < a+1 and the continued fraction otherwise (Numerical
// Recipes construction).
func lowerIncompleteGammaRegularized(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series representation.
		sum := 1 / a
		term := sum
		for n := 1; n < 500; n++ {
			term *= x / (a + float64(n))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x), then P = 1-Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}

// String implementations aid debugging and experiment logs.

func (d Normal) String() string      { return fmt.Sprintf("Normal(μ=%g, σ=%g)", d.Mu, d.Sigma) }
func (d Exponential) String() string { return fmt.Sprintf("Exp(λ=%g)", d.Lambda) }
func (d Weibull) String() string     { return fmt.Sprintf("Weibull(k=%g, λ=%g)", d.K, d.Lambda) }
func (d LogNormal) String() string   { return fmt.Sprintf("LogNormal(μ=%g, σ=%g)", d.Mu, d.Sigma) }
func (d Gamma) String() string       { return fmt.Sprintf("Gamma(α=%g, β=%g)", d.Alpha, d.Beta) }
func (d Uniform) String() string     { return fmt.Sprintf("Uniform[%g, %g)", d.A, d.B) }
