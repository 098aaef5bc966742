package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN if len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Standardize returns (xs - mean)/std elementwise together with the fitted
// mean and std; a zero std is replaced by 1 so constant features survive.
func Standardize(xs []float64) (z []float64, mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	if std == 0 || math.IsNaN(std) {
		std = 1
	}
	z = make([]float64, len(xs))
	for i, x := range xs {
		z[i] = (x - mean) / std
	}
	return z, mean, std
}
