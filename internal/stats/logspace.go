package stats

import "math"

// LogSumExp returns log(exp(a) + exp(b)) without overflow. Either argument
// may be -Inf (representing probability zero).
func LogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

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
