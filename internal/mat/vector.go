package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// ScaleVec multiplies every element of v by s in place and returns v.
func ScaleVec(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SumVec returns the sum of all entries of v.
func SumVec(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Normalize scales v in place so its entries sum to one and returns v.
// A zero vector is left unchanged.
func Normalize(v []float64) []float64 {
	s := SumVec(v)
	if s == 0 {
		return v
	}
	return ScaleVec(v, 1/s)
}
