package ubf

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/stats"
)

// SubsetEvaluator scores a candidate variable subset; lower is better.
// Implementations typically cross-validate a model restricted to the
// subset. An empty subset must be scorable (e.g. predict the mean).
type SubsetEvaluator func(subset []int) (float64, error)

// SelectorConfig controls PWASelect.
type SelectorConfig struct {
	// Iterations is the number of proposal rounds (default 60).
	Iterations int
	// Seed drives the probabilistic proposals.
	Seed int64
}

// startTemp scales the initial acceptance looseness.
const startTemp = 1

func (c SelectorConfig) withDefaults() SelectorConfig {
	if c.Iterations == 0 {
		c.Iterations = 60
	}
	return c
}

// PWASelect implements the Probabilistic Wrapper Approach: a stochastic
// wrapper that interleaves forward-selection moves (add a variable) and
// backward-elimination moves (drop a variable), accepting worsening moves
// with a probability that cools over the run. It returns the best subset
// found and its score.
func PWASelect(numVars int, eval SubsetEvaluator, cfg SelectorConfig) ([]int, float64, error) {
	cfg = cfg.withDefaults()
	if numVars < 1 {
		return nil, 0, fmt.Errorf("%w: %d variables", ErrUBF, numVars)
	}
	if cfg.Iterations < 1 {
		return nil, 0, fmt.Errorf("%w: iterations=%d", ErrUBF, cfg.Iterations)
	}
	g := stats.NewRNG(cfg.Seed)
	current := map[int]bool{}
	// Start from a random half-subset so both move types are available.
	for v := 0; v < numVars; v++ {
		if g.Bernoulli(0.5) {
			current[v] = true
		}
	}
	curScore, err := eval(setToSlice(current))
	if err != nil {
		return nil, 0, fmt.Errorf("evaluate initial subset: %w", err)
	}
	best := setToSlice(current)
	bestScore := curScore

	for it := 0; it < cfg.Iterations; it++ {
		temp := startTemp * (1 - float64(it)/float64(cfg.Iterations))
		v := g.Intn(numVars)
		candidate := cloneSet(current)
		if candidate[v] {
			delete(candidate, v) // backward elimination move
		} else {
			candidate[v] = true // forward selection move
		}
		score, err := eval(setToSlice(candidate))
		if err != nil {
			return nil, 0, fmt.Errorf("evaluate subset at iteration %d: %w", it, err)
		}
		accept := score <= curScore
		if !accept && temp > 0 {
			// Worsening moves accepted with cooling probability.
			rel := (score - curScore) / (math.Abs(curScore) + 1e-12)
			accept = g.Bernoulli(math.Exp(-rel / temp))
		}
		if accept {
			current, curScore = candidate, score
		}
		if score < bestScore {
			bestScore = score
			best = setToSlice(candidate)
		}
	}
	return best, bestScore, nil
}

// ForwardSelect greedily adds the variable that most improves the score
// until no addition improves it (classic forward selection).
func ForwardSelect(numVars int, eval SubsetEvaluator) ([]int, float64, error) {
	if numVars < 1 {
		return nil, 0, fmt.Errorf("%w: %d variables", ErrUBF, numVars)
	}
	current := map[int]bool{}
	curScore, err := eval(nil)
	if err != nil {
		return nil, 0, fmt.Errorf("evaluate empty subset: %w", err)
	}
	for {
		bestV, bestScore := -1, curScore
		for v := 0; v < numVars; v++ {
			if current[v] {
				continue
			}
			candidate := cloneSet(current)
			candidate[v] = true
			score, err := eval(setToSlice(candidate))
			if err != nil {
				return nil, 0, err
			}
			if score < bestScore {
				bestV, bestScore = v, score
			}
		}
		if bestV < 0 {
			return setToSlice(current), curScore, nil
		}
		current[bestV] = true
		curScore = bestScore
	}
}

// BackwardEliminate greedily removes the variable whose removal most
// improves the score, starting from the full set (classic backward
// elimination).
func BackwardEliminate(numVars int, eval SubsetEvaluator) ([]int, float64, error) {
	if numVars < 1 {
		return nil, 0, fmt.Errorf("%w: %d variables", ErrUBF, numVars)
	}
	current := map[int]bool{}
	for v := 0; v < numVars; v++ {
		current[v] = true
	}
	curScore, err := eval(setToSlice(current))
	if err != nil {
		return nil, 0, fmt.Errorf("evaluate full subset: %w", err)
	}
	for len(current) > 0 {
		bestV, bestScore := -1, curScore
		for v := range current {
			candidate := cloneSet(current)
			delete(candidate, v)
			score, err := eval(setToSlice(candidate))
			if err != nil {
				return nil, 0, err
			}
			if score < bestScore {
				bestV, bestScore = v, score
			}
		}
		if bestV < 0 {
			break
		}
		delete(current, bestV)
		curScore = bestScore
	}
	return setToSlice(current), curScore, nil
}

// SubsetColumns returns a copy of m restricted to the given columns, in the
// given order. An empty subset yields a single all-ones column (intercept
// only).
func SubsetColumns(m *mat.Matrix, cols []int) (*mat.Matrix, error) {
	if len(cols) == 0 {
		out := mat.New(m.Rows, 1)
		for r := 0; r < m.Rows; r++ {
			out.Set(r, 0, 1)
		}
		return out, nil
	}
	out := mat.New(m.Rows, len(cols))
	for j, c := range cols {
		if c < 0 || c >= m.Cols {
			return nil, fmt.Errorf("%w: column %d out of range", ErrUBF, c)
		}
		for r := 0; r < m.Rows; r++ {
			out.Set(r, j, m.At(r, c))
		}
	}
	return out, nil
}

// LinearCVEvaluator returns a SubsetEvaluator that scores subsets by k-fold
// cross-validated MSE of a ridge linear model on the selected columns —
// the cheap inner model a wrapper needs to stay tractable.
func LinearCVEvaluator(x *mat.Matrix, y []float64, folds int, ridge float64, seed int64) (SubsetEvaluator, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrUBF, x.Rows, len(y))
	}
	if folds < 2 || folds > x.Rows {
		return nil, fmt.Errorf("%w: %d folds for %d rows", ErrUBF, folds, x.Rows)
	}
	// Precompute the fold partition once: all subsets are scored on the
	// same row split, and the wrapper search — which calls the evaluator
	// hundreds of times — never rebuilds the index lists.
	g := stats.NewRNG(seed)
	assign := make([]int, x.Rows)
	for i, p := range g.Perm(x.Rows) {
		assign[p] = i % folds
	}
	trainRowsByFold := make([][]int, folds)
	testRowsByFold := make([][]int, folds)
	for r := 0; r < x.Rows; r++ {
		f := assign[r]
		testRowsByFold[f] = append(testRowsByFold[f], r)
		for o := 0; o < folds; o++ {
			if o != f {
				trainRowsByFold[o] = append(trainRowsByFold[o], r)
			}
		}
	}
	return func(subset []int) (float64, error) {
		sub, err := SubsetColumns(x, subset)
		if err != nil {
			return 0, err
		}
		totalSE, n := 0.0, 0
		for f := 0; f < folds; f++ {
			trainRows, testRows := trainRowsByFold[f], testRowsByFold[f]
			w, err := ridgeFit(sub, y, trainRows, ridge)
			if err != nil {
				return 0, err
			}
			for _, r := range testRows {
				pred := w[0]
				for c := 0; c < sub.Cols; c++ {
					pred += w[c+1] * sub.At(r, c)
				}
				d := pred - y[r]
				totalSE += d * d
				n++
			}
		}
		return totalSE / float64(n), nil
	}, nil
}

// ridgeFit fits [bias, coefs] on the selected rows.
func ridgeFit(x *mat.Matrix, y []float64, rows []int, ridge float64) ([]float64, error) {
	design := mat.New(len(rows), x.Cols+1)
	target := make([]float64, len(rows))
	for i, r := range rows {
		design.Set(i, 0, 1)
		for c := 0; c < x.Cols; c++ {
			design.Set(i, c+1, x.At(r, c))
		}
		target[i] = y[r]
	}
	return mat.SolveLeastSquares(design, target, ridge)
}

func cloneSet(s map[int]bool) map[int]bool {
	out := make(map[int]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

func setToSlice(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
