package stats

import (
	"math"
	"testing"
	"testing/quick"
)

const sampleN = 20000

// sampleMoments draws n variates and returns their mean and variance.
func sampleMoments(t *testing.T, d Dist, n int) (mean, variance float64) {
	t.Helper()
	g := NewRNG(42)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(g)
	}
	return Mean(xs), Variance(xs)
}

func TestNormalPDFCDF(t *testing.T) {
	d := Normal{Mu: 0, Sigma: 1}
	if got := d.PDF(0); math.Abs(got-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("standard normal PDF(0) = %g", got)
	}
	if got := d.CDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("standard normal CDF(0) = %g", got)
	}
	if got := d.CDF(1.959963985); math.Abs(got-0.975) > 1e-6 {
		t.Fatalf("CDF(1.96) = %g, want 0.975", got)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	mean, v := sampleMoments(t, Normal{Mu: 5, Sigma: 3}, sampleN)
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("sample mean = %g, want ≈5", mean)
	}
	if math.Abs(v-9) > 0.5 {
		t.Fatalf("sample variance = %g, want ≈9", v)
	}
}

func TestExponential(t *testing.T) {
	d := Exponential{Lambda: 2}
	if got := d.Mean(); got != 0.5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := d.CDF(d.Mean()); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("CDF(mean) = %g", got)
	}
	if d.PDF(-1) != 0 || d.CDF(-1) != 0 {
		t.Fatal("negative support not zero")
	}
	mean, _ := sampleMoments(t, d, sampleN)
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("sample mean = %g", mean)
	}
}

func TestWeibull(t *testing.T) {
	// K=1 reduces to Exponential(1/λ).
	d := Weibull{K: 1, Lambda: 2}
	e := Exponential{Lambda: 0.5}
	for _, x := range []float64{0.1, 1, 3} {
		if math.Abs(d.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Fatalf("Weibull(1,2).CDF(%g) ≠ Exp(0.5).CDF", x)
		}
	}
	aging := Weibull{K: 3, Lambda: 10}
	if aging.Hazard(1) >= aging.Hazard(5) {
		t.Fatal("Weibull k>1 hazard must increase")
	}
	mean, _ := sampleMoments(t, aging, sampleN)
	if math.Abs(mean-aging.Mean()) > 0.1 {
		t.Fatalf("sample mean %g vs analytic %g", mean, aging.Mean())
	}
}

func TestLogNormal(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 0.5}
	if d.PDF(-1) != 0 || d.CDF(0) != 0 {
		t.Fatal("non-positive support not zero")
	}
	if got := d.CDF(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(median) = %g, want 0.5", got)
	}
	mean, _ := sampleMoments(t, d, sampleN)
	if math.Abs(mean-d.Mean()) > 0.05 {
		t.Fatalf("sample mean %g vs analytic %g", mean, d.Mean())
	}
}

func TestGamma(t *testing.T) {
	d := Gamma{Alpha: 3, Beta: 2}
	if got := d.Mean(); got != 1.5 {
		t.Fatalf("Mean = %g", got)
	}
	// Gamma(1, β) is Exponential(β).
	g1 := Gamma{Alpha: 1, Beta: 2}
	e := Exponential{Lambda: 2}
	for _, x := range []float64{0.2, 1, 2.5} {
		if math.Abs(g1.CDF(x)-e.CDF(x)) > 1e-10 {
			t.Fatalf("Gamma(1,2).CDF(%g) = %g, want %g", x, g1.CDF(x), e.CDF(x))
		}
	}
	mean, v := sampleMoments(t, d, sampleN)
	if math.Abs(mean-1.5) > 0.05 {
		t.Fatalf("sample mean = %g", mean)
	}
	if math.Abs(v-0.75) > 0.1 {
		t.Fatalf("sample variance = %g, want ≈0.75", v)
	}
	// Shape < 1 exercises the boosting branch.
	small := Gamma{Alpha: 0.5, Beta: 1}
	mean, _ = sampleMoments(t, small, sampleN)
	if math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("Gamma(0.5,1) sample mean = %g", mean)
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{A: 2, B: 6}
	if d.Mean() != 4 {
		t.Fatalf("Mean = %g", d.Mean())
	}
	if d.CDF(1) != 0 || d.CDF(7) != 1 || d.CDF(4) != 0.5 {
		t.Fatal("CDF wrong")
	}
	if d.PDF(3) != 0.25 || d.PDF(6.5) != 0 {
		t.Fatal("PDF wrong")
	}
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		x := d.Sample(g)
		if x < 2 || x >= 6 {
			t.Fatalf("sample %g outside [2,6)", x)
		}
	}
}

// Property: every CDF is monotone non-decreasing on random point pairs.
func TestCDFMonotone(t *testing.T) {
	dists := []Dist{
		Normal{Mu: 1, Sigma: 2},
		Exponential{Lambda: 0.3},
		Weibull{K: 2, Lambda: 5},
		LogNormal{Mu: 0.2, Sigma: 1},
		Gamma{Alpha: 2.5, Beta: 0.7},
		Uniform{A: -1, B: 4},
	}
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 50), math.Mod(b, 50)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		for _, d := range dists {
			ca, cb := d.CDF(a), d.CDF(b)
			if ca > cb+1e-12 || ca < -1e-12 || cb > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategorical(t *testing.T) {
	g := NewRNG(11)
	counts := make([]int, 3)
	w := []float64{1, 2, 7}
	for i := 0; i < 10000; i++ {
		counts[g.Categorical(w)]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("categorical counts not ordered by weight: %v", counts)
	}
	if f := float64(counts[2]) / 10000; math.Abs(f-0.7) > 0.03 {
		t.Fatalf("weight-7 frequency = %g, want ≈0.7", f)
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := NewRNG(1)
	for _, w := range [][]float64{{0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			g.Categorical(w)
		}()
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	// Splits with different indices must differ.
	s1, s2 := NewRNG(99).Split(1), NewRNG(99).Split(2)
	same := true
	for i := 0; i < 10; i++ {
		if s1.Float64() != s2.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("Split(1) and Split(2) produced identical streams")
	}
}

// TestStreamSeed: the k-th derived seed is base ^ (golden · k), golden the
// constant Split and both predictors' retrain seeds have always used (so
// their streams are bit-identical), and generations get distinct seeds.
func TestStreamSeed(t *testing.T) {
	const golden = int64(0x1E3779B97F4A7C15) // 0x9E3779B97F4A7C15, sign bit cleared
	for _, base := range []int64{0, 5, -7, 1 << 62} {
		for k := int64(0); k < 5; k++ {
			if got, want := StreamSeed(base, k), base^golden*k; got != want {
				t.Errorf("StreamSeed(%d, %d) = %#x, want %#x", base, k, got, want)
			}
		}
	}
	if StreamSeed(5, 1) == StreamSeed(5, 2) {
		t.Fatal("generation seeds collide")
	}
}
