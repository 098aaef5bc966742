package mat

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P*A = L*U, stored compactly in lu with the pivot sequence in piv.
type LU struct {
	lu  *Matrix
	piv []int
}

// Factorize computes the LU factorization of the square matrix a.
// It returns ErrSingular (wrapped) if a pivot is exactly zero.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest |entry| in column k at/below row k.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				max, p = a, i
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			for c := 0; c < n; c++ {
				lu.Data[p*n+c], lu.Data[k*n+c] = lu.Data[k*n+c], lu.Data[p*n+c]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for c := k + 1; c < n; c++ {
				lu.Data[i*n+c] -= m * lu.Data[k*n+c]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// SolveVec solves A*x = b for x using the factorization.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve with rhs length %d, want %d", ErrDimension, len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// SolveMat solves A*X = B column by column.
func (f *LU) SolveMat(b *Matrix) (*Matrix, error) {
	if b.Rows != f.lu.Rows {
		return nil, fmt.Errorf("%w: solve with rhs %dx%d, want %d rows", ErrDimension, b.Rows, b.Cols, f.lu.Rows)
	}
	out := New(b.Rows, b.Cols)
	for c := 0; c < b.Cols; c++ {
		col, err := f.SolveVec(b.Col(c))
		if err != nil {
			return nil, err
		}
		for r, v := range col {
			out.Set(r, c, v)
		}
	}
	return out, nil
}

// Solve solves the square system a*x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// SolveLeastSquares solves the (possibly overdetermined) system a*x ≈ b in
// the least-squares sense with Tikhonov regularization strength ridge ≥ 0,
// via the normal equations (AᵀA + ridge·I) x = Aᵀb. This is adequate for the
// modest kernel design matrices used by the UBF learner.
func SolveLeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: lstsq with %d rows and rhs length %d", ErrDimension, a.Rows, len(b))
	}
	if ridge < 0 {
		return nil, fmt.Errorf("mat: negative ridge %g", ridge)
	}
	ata, atb := normalEquations(a, b)
	for i := 0; i < a.Cols; i++ {
		ata.Add(i, i, ridge)
	}
	return Solve(ata, atb)
}

// normalEquations returns AᵀA and Aᵀb accumulated straight from A's rows,
// each element summed over rows in ascending order — the order (and, for
// finite input, the bits) of a.Transpose().Mul(a) and
// a.Transpose().MulVec(b), without materializing the transpose. AᵀA is
// symmetric, so only its lower triangle is summed and then mirrored:
// element (j, i) would add row[j]·row[i] = row[i]·row[j] in the same row
// order, and the terms it would add where row[i] is 0 but row[j] is not are
// ±0, which leave a sum that starts at +0 unchanged.
func normalEquations(a *Matrix, b []float64) (*Matrix, []float64) {
	k := a.Cols
	ata := New(k, k)
	atb := make([]float64, k)
	for r := 0; r < a.Rows; r++ {
		row := a.RowView(r)
		for i, v := range row {
			atb[i] += v * b[r]
			if v == 0 {
				continue
			}
			oi := ata.Data[i*k : i*k+i+1]
			for j, u := range row[:i+1] {
				oi[j] += v * u
			}
		}
	}
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			ata.Data[j*k+i] = ata.Data[i*k+j]
		}
	}
	return ata, atb
}
