package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, -5, 6}); got != 12 {
		t.Fatalf("Dot = %g, want 12", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Dot did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float64{2, 6})
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Fatalf("Normalize = %v", v)
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize(0) = %v, want unchanged", z)
	}
}

func TestNorm2AndInf(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %g", got)
	}
}

func TestCloneVecIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := CloneVec(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("CloneVec aliased its input")
	}
}

// Property: Cauchy–Schwarz |a·b| ≤ ‖a‖‖b‖.
func TestCauchySchwarz(t *testing.T) {
	f := func(a, b [4]float64) bool {
		as, bs := a[:], b[:]
		// Squash quick's unbounded floats into a finite range so the
		// products cannot overflow to ±Inf.
		for i := range as {
			as[i] = math.Tanh(as[i] / 1e100)
			bs[i] = math.Tanh(bs[i] / 1e100)
		}
		lhs := math.Abs(Dot(as, bs))
		rhs := Norm2(as) * Norm2(bs)
		return lhs <= rhs*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
