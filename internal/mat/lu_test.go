package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("Solve = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	_, err := Solve(a, []float64{1, 2})
	if err == nil {
		t.Fatal("singular system did not error")
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("error %v is not ErrSingular", err)
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := Factorize(New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("Factorize(2x3) error = %v, want ErrDimension", err)
	}
}

// Property: solving A*x = A*x0 recovers x0 for random well-conditioned A.
func TestSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well-conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b := mulVec(a, x0)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-x0[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatMatchesSolveVec(t *testing.T) {
	a, _ := FromRows([][]float64{{5, 1}, {-1, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	x, err := f.SolveMat(b)
	if err != nil {
		t.Fatal(err)
	}
	col0, _ := f.SolveVec([]float64{1, 0})
	if math.Abs(x.At(0, 0)-col0[0]) > 1e-14 || math.Abs(x.At(1, 0)-col0[1]) > 1e-14 {
		t.Fatal("SolveMat disagrees with SolveVec")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system: the LS solution is the exact one.
	a, _ := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	x0 := []float64{2, -3}
	b := mulVec(a, x0)
	x, err := SolveLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if math.Abs(x[i]-x0[i]) > 1e-10 {
			t.Fatalf("lstsq = %v, want %v", x, x0)
		}
	}
}

func TestSolveLeastSquaresRidgeShrinks(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	b := []float64{1, 1}
	x0, err := SolveLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveLeastSquares(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(x1) >= Norm2(x0) {
		t.Fatalf("ridge did not shrink solution: %v vs %v", x1, x0)
	}
}

// TestSolveLeastSquaresMatchesTransposedBits pins the row-streamed normal
// equations to the formulation they replaced — Aᵀ materialized, then
// Aᵀ·A and Aᵀ·b — bit for bit, on random matrices with exact zeros (the
// entries Mul skips) among the entries.
func TestSolveLeastSquaresMatchesTransposedBits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(60), 1+r.Intn(12)
		a := New(rows, cols)
		for i := range a.Data {
			if r.Intn(5) > 0 {
				a.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ridge := 1e-4 * float64(r.Intn(3))

		at := a.Transpose()
		ata, _ := at.Mul(a)
		for i := 0; i < cols; i++ {
			ata.Add(i, i, ridge)
		}
		atb := mulVec(at, b)
		want, wantErr := Solve(ata, atb)

		got, err := SolveLeastSquares(a, b, ridge)
		if (err == nil) != (wantErr == nil) {
			t.Logf("seed %d: err %v, transposed err %v", seed, err, wantErr)
			return false
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Logf("seed %d: x[%d] = %v, transposed %v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLeastSquaresNormalMatrixBits pins the mirrored lower triangle of
// AᵀA to the full product a.Transpose().Mul(a), bit for bit, on the shape
// of a UBF design matrix: a leading ones column, a column that is mostly
// exact zeros (a kernel far from most rows), signed zeros among them, and
// dense columns of mixed magnitude.
func TestSolveLeastSquaresNormalMatrixBits(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	rows, cols := 200, 6
	a := New(rows, cols)
	b := make([]float64, rows)
	for i := 0; i < rows; i++ {
		a.Set(i, 0, 1)
		switch {
		case i%7 == 0:
			a.Set(i, 1, r.NormFloat64()*1e-3)
		case i%2 == 0:
			a.Set(i, 1, math.Copysign(0, -1))
		}
		for c := 2; c < cols; c++ {
			a.Set(i, c, r.NormFloat64()*math.Pow(10, float64(r.Intn(9)-4)))
		}
		b[i] = r.NormFloat64()
	}
	want, _ := a.Transpose().Mul(a)
	wantB := mulVec(a.Transpose(), b)
	got, gotB := New(cols, cols), make([]float64, cols)
	normalEquations(a, b, got, gotB)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("AᵀA[%d][%d] = %v, full product %v", i/cols, i%cols, got.Data[i], want.Data[i])
		}
	}
	for i := range wantB {
		if math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
			t.Fatalf("Aᵀb[%d] = %v, full product %v", i, gotB[i], wantB[i])
		}
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	a := New(3, 2)
	if _, err := SolveLeastSquares(a, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched rhs did not error")
	}
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative ridge did not error")
	}
}

// TestLeastSquaresReuseMatchesFresh: one LeastSquares solving a run of
// same-width problems — a singular one among them, whose half-done
// factorization must not leak into the next — returns, bit for bit, what
// SolveLeastSquares returns on fresh storage, and allocates only each
// solution.
func TestLeastSquaresReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const rows, cols = 40, 5
	ls := NewLeastSquares(cols)
	for trial := 0; trial < 20; trial++ {
		a := New(rows, cols)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		if trial == 7 { // a zero column and no ridge: singular
			for i := 0; i < rows; i++ {
				a.Set(i, 2, 0)
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ridge := 1e-4
		if trial == 7 {
			ridge = 0
		}
		want, wantErr := SolveLeastSquares(a, b, ridge)
		got, err := ls.Solve(a, b, ridge)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err %v, fresh storage %v", trial, err, wantErr)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x[%d] = %v, fresh storage %v", trial, i, got[i], want[i])
			}
		}
		if trial == 19 {
			if allocs := testing.AllocsPerRun(20, func() { _, _ = ls.Solve(a, b, ridge) }); allocs != 1 {
				t.Fatalf("Solve allocates %.1f/op, want 1 (the solution)", allocs)
			}
		}
	}
	if _, err := ls.Solve(New(rows, cols+1), make([]float64, rows), 0); !errors.Is(err, ErrDimension) {
		t.Fatalf("width mismatch: err %v, want ErrDimension", err)
	}
}
