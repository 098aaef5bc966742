package stats

import (
	"math"
	"testing"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %g", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean":     Mean(nil),
		"Variance": Variance([]float64{1}),
	} {
		if !math.IsNaN(got) {
			t.Fatalf("%s of degenerate input = %g, want NaN", name, got)
		}
	}
}

func TestStandardize(t *testing.T) {
	z, mean, std := Standardize([]float64{1, 2, 3})
	if mean != 2 || math.Abs(std-1) > 1e-12 {
		t.Fatalf("mean=%g std=%g", mean, std)
	}
	if math.Abs(z[0]+1) > 1e-12 || z[1] != 0 {
		t.Fatalf("z = %v", z)
	}
	// Constant input: std forced to 1, z all zero.
	z, _, std = Standardize([]float64{4, 4, 4})
	if std != 1 || z[0] != 0 {
		t.Fatalf("constant standardize: z=%v std=%g", z, std)
	}
}

func TestLogSumExpSlice(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExpSlice(xs); math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("LogSumExpSlice = %g", got)
	}
	if !math.IsInf(LogSumExpSlice(nil), -1) {
		t.Fatal("empty LogSumExpSlice should be -Inf")
	}
	if !math.IsInf(LogSumExpSlice([]float64{math.Inf(-1)}), -1) {
		t.Fatal("all -Inf should stay -Inf")
	}
}

func TestLogGuard(t *testing.T) {
	if !math.IsInf(Log(0), -1) || !math.IsInf(Log(-3), -1) {
		t.Fatal("Log of non-positive should be -Inf")
	}
	if Log(math.E) != 1 {
		t.Fatal("Log(e) != 1")
	}
}
