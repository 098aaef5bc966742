package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpmZeroIsIdentity(t *testing.T) {
	e, err := Expm(New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equalish(Identity(4), 1e-14) {
		t.Fatalf("exp(0) = %v, want I", e)
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, -2)
	a.Set(2, 2, 0.5)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{math.E, math.Exp(-2), math.Exp(0.5)} {
		if math.Abs(e.At(i, i)-want) > 1e-12 {
			t.Fatalf("exp(diag)[%d,%d] = %g, want %g", i, i, e.At(i, i), want)
		}
	}
}

func TestExpmNilpotent(t *testing.T) {
	// For strictly upper triangular 2x2 N, exp(N) = I + N exactly.
	a := New(2, 2)
	a.Set(0, 1, 3)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{1, 3}, {0, 1}})
	if !e.Equalish(want, 1e-13) {
		t.Fatalf("exp(nilpotent) = %v, want %v", e, want)
	}
}

func TestExpmLargeNormUsesScaling(t *testing.T) {
	// A = diag(10, -10): large norm forces the scaling-and-squaring path.
	a := New(2, 2)
	a.Set(0, 0, 10)
	a.Set(1, 1, -10)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(e.At(0, 0)-math.Exp(10)) / math.Exp(10); rel > 1e-10 {
		t.Fatalf("exp(10) relative error %g", rel)
	}
	if math.Abs(e.At(1, 1)-math.Exp(-10)) > 1e-10 {
		t.Fatalf("exp(-10) = %g", e.At(1, 1))
	}
}

// Property: exp(A)·exp(−A) = I for random small matrices.
func TestExpmInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		ea, err := Expm(a)
		if err != nil {
			return false
		}
		ena, err := Expm(a.Clone().Scale(-1))
		if err != nil {
			return false
		}
		prod, err := ea.Mul(ena)
		if err != nil {
			return false
		}
		return prod.Equalish(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: exp((s+t)A) = exp(sA)·exp(tA) — the semigroup property used by
// the CTMC transient solver.
func TestExpmSemigroupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * 0.5
		}
		s, u := math.Abs(rng.NormFloat64()), math.Abs(rng.NormFloat64())
		whole, err := Expm(a.Clone().Scale(s + u))
		if err != nil {
			return false
		}
		es, err := Expm(a.Clone().Scale(s))
		if err != nil {
			return false
		}
		eu, err := Expm(a.Clone().Scale(u))
		if err != nil {
			return false
		}
		parts, err := es.Mul(eu)
		if err != nil {
			return false
		}
		return whole.Equalish(parts, 1e-7*math.Max(1, whole.Norm1()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExpmGeneratorRowSumsPreserved(t *testing.T) {
	// For a CTMC generator Q (rows sum to 0), exp(tQ) is stochastic:
	// rows sum to 1 and entries are non-negative.
	q, _ := FromRows([][]float64{
		{-2, 1.5, 0.5},
		{0.3, -0.5, 0.2},
		{1, 0, -1},
	})
	p, err := Expm(q.Clone().Scale(0.7))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		s := 0.0
		for c := 0; c < 3; c++ {
			v := p.At(r, c)
			if v < -1e-12 {
				t.Fatalf("negative transition probability %g at (%d,%d)", v, r, c)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("row %d of exp(tQ) sums to %g", r, s)
		}
	}
}

func TestExpmNonSquare(t *testing.T) {
	if _, err := Expm(New(2, 3)); err == nil {
		t.Fatal("Expm of non-square matrix did not error")
	}
}
