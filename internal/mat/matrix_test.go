package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d with %d entries", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix is not zeroed")
		}
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 2) did not panic")
		}
	}()
	New(0, 2)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged FromRows did not error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty FromRows did not error")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(3)[%d,%d] = %g", r, c, id.At(r, c))
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equalish(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulDimensionError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("incompatible Mul did not error")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
	z, err := a.VecMul([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("VecMul = %v", z)
	}
}

func TestTranspose(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		return a.Transpose().Transpose().Equalish(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorms(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := a.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %g, want 6", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	sum, err := a.AddMat(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 5 || sum.At(1, 1) != 5 {
		t.Fatalf("AddMat = %v", sum)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equalish(a, 1e-15) {
		t.Fatalf("Sub did not invert AddMat: %v", diff)
	}
	if got := a.Clone().Scale(2).At(1, 0); got != 6 {
		t.Fatalf("Scale(2) at (1,0) = %g", got)
	}
}

func TestRowColAccessors(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := a.Row(1)
	c := a.Col(2)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	if c[0] != 3 || c[1] != 6 {
		t.Fatalf("Col(2) = %v", c)
	}
	// Mutating the copies must not touch the matrix.
	r[0], c[0] = -1, -1
	if a.At(1, 0) != 4 || a.At(0, 2) != 3 {
		t.Fatal("Row/Col returned aliases, want copies")
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		mk := func() *Matrix {
			m := New(n, n)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equalish(abc2, 1e-9*math.Max(1, abc1.Norm1()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
