package ctmc

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// expPhase builds the 1-phase (exponential) distribution with rate lambda.
func expPhase(t *testing.T, lambda float64) *PhaseType {
	t.Helper()
	sub := mat.New(1, 1)
	sub.Set(0, 0, -lambda)
	p, err := NewPhaseType([]float64{1}, sub)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhaseTypeExponential(t *testing.T) {
	lambda := 0.8
	p := expPhase(t, lambda)
	for _, x := range []float64{0.1, 1, 3} {
		cdf, err := p.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 - math.Exp(-lambda*x); math.Abs(cdf-want) > 1e-10 {
			t.Fatalf("CDF(%g) = %g, want %g", x, cdf, want)
		}
		h, err := p.Hazard(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-lambda) > 1e-10 {
			t.Fatalf("exponential hazard at %g = %g, want constant %g", x, h, lambda)
		}
	}
	mean, err := p.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1/lambda) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", mean, 1/lambda)
	}
}

func TestPhaseTypeErlang2(t *testing.T) {
	lambda := 2.0
	sub, _ := mat.FromRows([][]float64{
		{-lambda, lambda},
		{0, -lambda},
	})
	p, err := NewPhaseType([]float64{1, 0}, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Erlang-2 distribution function: 1 − (1 + λt) e^{-λt}.
	for _, x := range []float64{0.2, 0.5, 1.5} {
		cdf, err := p.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - (1+lambda*x)*math.Exp(-lambda*x)
		if math.Abs(cdf-want) > 1e-10 {
			t.Fatalf("Erlang2 CDF(%g) = %g, want %g", x, cdf, want)
		}
	}
	mean, err := p.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2/lambda) > 1e-12 {
		t.Fatalf("Erlang2 mean = %g, want %g", mean, 2/lambda)
	}
	// Erlang hazard is increasing from 0 toward λ.
	h1, _ := p.Hazard(0.1)
	h2, _ := p.Hazard(1)
	if h1 >= h2 || h2 > lambda {
		t.Fatalf("Erlang2 hazard not increasing toward λ: %g, %g", h1, h2)
	}
}

func TestPhaseTypeBoundaries(t *testing.T) {
	p := expPhase(t, 1)
	if cdf, _ := p.CDF(0); cdf != 0 {
		t.Fatalf("CDF(0) = %g", cdf)
	}
	if cdf, _ := p.CDF(-5); cdf != 0 {
		t.Fatalf("CDF(-5) = %g", cdf)
	}
	if s, _ := p.Survival(0); s != 1 {
		t.Fatalf("Survival(0) = %g", s)
	}
}

func TestNewPhaseTypeValidation(t *testing.T) {
	good := mat.New(1, 1)
	good.Set(0, 0, -1)
	cases := []struct {
		name  string
		alpha []float64
		sub   func() *mat.Matrix
	}{
		{"alpha wrong length", []float64{0.5, 0.5}, func() *mat.Matrix { return good.Clone() }},
		{"alpha not normalized", []float64{0.7}, func() *mat.Matrix { return good.Clone() }},
		{"negative alpha", []float64{-1}, func() *mat.Matrix { return good.Clone() }},
		{"positive diagonal", []float64{1}, func() *mat.Matrix {
			m := mat.New(1, 1)
			m.Set(0, 0, 1)
			return m
		}},
		{"positive row sum", []float64{1}, func() *mat.Matrix {
			m, _ := mat.FromRows([][]float64{{-1, 2}})
			big := mat.New(2, 2)
			big.Set(0, 0, -1)
			big.Set(0, 1, 2)
			big.Set(1, 1, -1)
			_ = m
			return big
		}},
		{"negative off-diagonal", []float64{1, 0}, func() *mat.Matrix {
			m := mat.New(2, 2)
			m.Set(0, 0, -1)
			m.Set(0, 1, -0.5)
			m.Set(1, 1, -1)
			return m
		}},
	}
	for _, tc := range cases {
		if _, err := NewPhaseType(tc.alpha, tc.sub()); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
	}
}

func TestAbsorbingFrom(t *testing.T) {
	// up → degraded → down(absorbing); up → down directly as well.
	c := New("up", "degraded", "down")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.SetRate(0, 1, 0.5))
	must(c.SetRate(0, 2, 0.1))
	must(c.SetRate(1, 2, 1.0))
	must(c.SetRate(1, 0, 0.2))
	p, err := AbsorbingFrom(c, []int{2}, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.alpha) != 2 {
		t.Fatalf("phases = %d, want 2", len(p.alpha))
	}
	// CDF must be a valid distribution function.
	prev := 0.0
	for _, x := range []float64{0.5, 1, 2, 5, 20} {
		f, err := p.CDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if f < prev || f > 1 {
			t.Fatalf("CDF(%g) = %g not monotone in [0,1]", x, f)
		}
		prev = f
	}
	if prev < 0.99 {
		t.Fatalf("CDF(20) = %g, should be near 1", prev)
	}
	// Mean time to absorption is positive and finite.
	mean, err := p.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || math.IsInf(mean, 0) {
		t.Fatalf("mean = %g", mean)
	}
	// Cross-check the mean against numeric integration of the survival fn.
	integral := 0.0
	dt := 0.01
	for x := 0.0; x < 60; x += dt {
		s, err := p.Survival(x + dt/2)
		if err != nil {
			t.Fatal(err)
		}
		integral += s * dt
	}
	if math.Abs(integral-mean) > 0.01*mean {
		t.Fatalf("∫R = %g vs analytic mean %g", integral, mean)
	}
}

func TestAbsorbingFromValidation(t *testing.T) {
	c := New("a", "b")
	if err := c.SetRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AbsorbingFrom(c, nil, []float64{1, 0}); err == nil {
		t.Fatal("empty absorbing set did not error")
	}
	if _, err := AbsorbingFrom(c, []int{0, 1}, []float64{1, 0}); err == nil {
		t.Fatal("all-absorbing set did not error")
	}
	if _, err := AbsorbingFrom(c, []int{1}, []float64{0, 1}); err == nil {
		t.Fatal("mass on absorbing state did not error")
	}
	if _, err := AbsorbingFrom(c, []int{5}, []float64{1, 0}); err == nil {
		t.Fatal("out-of-range absorbing state did not error")
	}
	if _, err := AbsorbingFrom(c, []int{1}, []float64{1}); err == nil {
		t.Fatal("bad alpha length did not error")
	}
}
