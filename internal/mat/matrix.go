// Package mat provides the small dense linear-algebra substrate used by the
// CTMC engine and the statistical learners: vectors, row-major matrices,
// LU-based linear solves, and the matrix exponential.
//
// The package is deliberately minimal — it implements exactly what the PFM
// stack needs (systems of a few dozen states, kernel design matrices with a
// few thousand rows) with no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimension is returned (wrapped) when operand shapes do not conform.
var ErrDimension = errors.New("mat: dimension mismatch")

// ErrSingular is returned (wrapped) when a matrix is numerically singular.
var ErrSingular = errors.New("mat: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrDimension)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add accumulates v onto the element at row r, column c.
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// RowView returns row r as a view into the backing store — no copy. The
// returned slice must not be modified; it is the read path for hot loops
// that scan every row and would otherwise allocate per row.
func (m *Matrix) RowView(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Col returns a copy of column c.
func (m *Matrix) Col(c int) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Data[r*m.Cols+c]
	}
	return out
}

// Scale multiplies every element of m by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMat returns m + b as a new matrix.
func (m *Matrix) AddMat(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: add %dx%d and %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out, nil
}

// Sub returns m - b as a new matrix.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: sub %dx%d and %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out, nil
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, a := range mi {
			if a == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range bk {
				oi[j] += a * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: mulvec %dx%d by vector of length %d", ErrDimension, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMul returns the vector-matrix product x*m (x treated as a row vector).
func (m *Matrix) VecMul(x []float64) ([]float64, error) {
	if m.Rows != len(x) {
		return nil, fmt.Errorf("%w: vecmul vector of length %d by %dx%d", ErrDimension, len(x), m.Rows, m.Cols)
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out, nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Norm1 returns the maximum absolute column sum.
func (m *Matrix) Norm1() float64 {
	max := 0.0
	for c := 0; c < m.Cols; c++ {
		s := 0.0
		for r := 0; r < m.Rows; r++ {
			s += math.Abs(m.Data[r*m.Cols+c])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// Equalish reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equalish(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for r := 0; r < m.Rows; r++ {
		sb.WriteString("[")
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", m.At(r, c))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
