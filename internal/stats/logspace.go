package stats

import "math"

// LogSumExpSlice returns log(Σ exp(xs[i])) without overflow; -Inf for empty
// input or all -Inf entries.
func LogSumExpSlice(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}

// Log returns math.Log(x), mapping 0 to -Inf without the -Inf/NaN pitfalls
// of taking logs of tiny negative rounding noise.
func Log(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}
